"""The online memory checker: store/retrieve protocols over adversarial public memory.

The checker's private memory is k copies of one fingerprint of the codeword
it last wrote; CheckerState keeps that snapshot once, with k. On every
retrieve it fetches k fresh summary fingerprints of the public memory, runs
one comparison test per (stored, summary) pair, and replies "buggy" if any
test rejects. The k summaries are also one snapshot, so the k tests share
one Hamming distance: a verification computes that distance once and
samples the k copies from it. Otherwise the checker answers the requested
bit via one local decode routed through counted memory reads, then replaces
its private snapshot with one of k new summaries of the current memory
(measured copies are never reused, so a retrieve fetches 2k summaries in
total: k for testing, k for refresh). Every position and index a request
names passes bits.check_positions before anything is served or flipped.

Store encodes the message first (encoding parses it and draws no
randomness), runs the same verification against the current memory
(skipped on the very first store, when there is nothing to verify), then
writes the codeword and fingerprints it locally. PublicMemory parses every
write into its own array; the stored fingerprint takes over the fresh
codeword, and each summary fetch copies the contents once, since the
adversary flips memory in place. Nothing the package built is re-parsed.

Complexity accounting: private memory holds k fingerprints of ceil(log2 m)
qubits each. stated_complexity states the protocol's cost from the code and
k alone, and is what a run reports. PublicMemory meters the traffic it
serves (summaries and decode reads), and complexity_report reads t from
those meters alone: the measurement the stated cost is checked against.

A CheckerState plus its PublicMemory form one sequential protocol session;
distinct sessions are independent and may run in parallel workers. A run's
sessions are engine rows (engine.run_sessions), and the tests compare that
engine with store and retrieve here. The one library session a run plays is
harness._probe_complexity's store and retrieve, which check the stated cost
against complexity_report.

Threat model: the memory is passive between requests, and its reads are
honest. The adversary corrupts the public memory only between two requests
(adversary_flip, adversary_overwrite); while a request runs, every summary
and every decode read comes from the memory's current contents. Soundness
holds only under that model: a memory whose stored bits stay intact but
which flips the first decode read of a retrieve passes every verification
and answers the wrong bit (n=4, k=7: 2,000 wrong answers in 2,000 sessions,
and the next honest retrieve answered correctly in all of them; ROADMAP
item 10).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .bits import as_bits, check_positions
from .code import LocallyDecodableCode
from .fingerprint import Fingerprint, make_fingerprint, p_single, sample_swap_test


class ProtocolError(RuntimeError):
    """An operation was invoked outside its protocol preconditions."""


@dataclass(frozen=True)
class Verdict:
    """Checker reply to a user request: an answer bit, or "buggy".

    Exactly one variant: kind == "answer" carries a bit, kind == "buggy" does not.
    """

    kind: str
    bit: int | None = None

    @classmethod
    def answer(cls, bit: int) -> "Verdict":
        if bit not in (0, 1):
            raise ValueError(f"answer bit must be 0 or 1, got {bit}")
        return _ANSWERS[int(bit)]

    @classmethod
    def buggy(cls) -> "Verdict":
        return _BUGGY

    def __post_init__(self) -> None:
        if self.kind not in ("answer", "buggy"):
            raise ValueError(f"invalid verdict kind {self.kind!r}")
        if (self.kind == "answer") != (self.bit is not None):
            raise ValueError("answer verdicts carry a bit; buggy verdicts do not")

    @property
    def is_buggy(self) -> bool:
        return self.kind == "buggy"


# Verdicts are immutable, so every store and retrieve shares these three instances.
_ANSWERS = (Verdict("answer", 0), Verdict("answer", 1))
_BUGGY = Verdict("buggy")


@dataclass(frozen=True)
class ComplexityReport:
    """Measured resource usage: private qubits held and qubits served per retrieve."""

    s_qubits: int
    t_qubits_per_retrieve: int

    def __post_init__(self) -> None:
        if self.s_qubits < 0 or self.t_qubits_per_retrieve < 0:
            raise ValueError("complexity figures must be nonnegative")


class PublicMemory:
    """The adversary-writable m-bit array, with a log of traffic served to the checker.

    read_log counts individual bit positions served for local decoding;
    summary_log counts summary fingerprints served. Adversary mutations go
    through adversary_flip / adversary_overwrite and are never logged: the
    logs meter checker queries only.
    """

    def __init__(self) -> None:
        self._bits: np.ndarray | None = None
        self.read_log = 0
        self.summary_log = 0

    @property
    def initialized(self) -> bool:
        return self._bits is not None

    @property
    def m(self) -> int:
        self._require_initialized()
        return self._bits.size

    @property
    def bits(self) -> np.ndarray:
        """Read-only view of the current contents (uncounted; for inspection)."""
        self._require_initialized()
        view = self._bits.view()
        view.setflags(write=False)
        return view

    def _require_initialized(self) -> None:
        if self._bits is None:
            raise ProtocolError("public memory has no contents yet (no store has run)")

    # -- checker-facing (counted where the protocol counts) ----------------

    def write(self, word) -> None:
        """Store a codeword. The first write fixes m; later writes must match it."""
        arr = as_bits(word, name="codeword")
        if self._bits is not None and arr.size != self._bits.size:
            raise ValueError(f"codeword length {arr.size} != established m={self._bits.size}")
        self._bits = arr

    def read_bits(self, positions) -> np.ndarray:
        """Serve individual codeword bits; each position served counts once."""
        self._require_initialized()
        idx = check_positions(positions, self._bits.size, name="read positions")
        self.read_log += int(idx.size)
        return self._bits[idx]

    def fetch_summaries(self, count: int) -> list[Fingerprint]:
        """Serve *count* summary fingerprints of the current contents."""
        self._require_initialized()
        if count < 1:
            raise ValueError(f"summary count must be >= 1, got {count}")
        self.summary_log += count
        snapshot = make_fingerprint(self._bits.copy())
        # Identical physical copies of one snapshot; Fingerprint is immutable,
        # so sharing the pattern is observationally equivalent.
        return [snapshot] * count

    # -- adversary-facing (uncounted) ---------------------------------------

    def adversary_flip(self, positions) -> None:
        """Flip the given distinct positions in place. Corruption, not checker traffic."""
        self._require_initialized()
        idx = check_positions(positions, self._bits.size, name="flip positions")
        ordered = np.sort(idx, axis=None)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("flip positions must be distinct")
        self._bits[idx] ^= 1

    def adversary_overwrite(self, word) -> None:
        """Replace the whole contents. Corruption, not checker traffic."""
        self._require_initialized()
        arr = as_bits(word, name="replacement")
        if arr.size != self._bits.size:
            raise ValueError(f"replacement length {arr.size} != m={self._bits.size}")
        self._bits = arr


@dataclass
class CheckerState:
    """Private, reliable side of the checker: k copies of one stored fingerprint,
    kept once (None until the first store)."""

    code: LocallyDecodableCode
    k: int
    fingerprint: Fingerprint | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    @property
    def initialized(self) -> bool:
        return self.fingerprint is not None


def new_checker(code: LocallyDecodableCode, epsilon: float, k: int | None = None) -> CheckerState:
    """Fresh checker state; k defaults to required_k(epsilon, code distance).
    required_k runs, and so validates epsilon, whether or not k is given."""
    base_k = required_k(epsilon, code.params.delta)
    return CheckerState(code=code, k=base_k if k is None else k)


def required_k(epsilon: float, delta: float) -> int:
    """Copies needed to push the all-accept probability below epsilon.

    A single comparison against memory at relative distance >= delta accepts
    with probability at most p_single(delta) = 1 - 2*delta + 2*delta^2, so
    k = ceil(log(epsilon) / log(p_single(delta))) suffices.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must be in (0, 1/2), got {epsilon}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    base = p_single(delta)
    if base >= 1.0:
        # delta == 1: a full complement is a global phase flip, invisible to the
        # comparison test; no finite k reaches the target error rate.
        raise ValueError(f"no finite k for delta={delta}: per-test accept probability is 1")
    ratio = math.log(epsilon) / math.log(base)
    # Nudge guards against float noise at exact-integer ratios; the true k is
    # any integer >= ratio, so rounding a hair down is always safe.
    return max(1, math.ceil(ratio - 1e-12))


def _verification_accepts(
    state: CheckerState, memory: PublicMemory, rng: np.random.Generator
) -> bool:
    """Fetch k summaries and test them against the k stored copies.

    The k stored copies are one snapshot, and so are the k summaries, so all
    k pairs sit at one Hamming distance: one sample_swap_test call on k copies
    samples them all (even after a rejection, which keeps the Monte Carlo
    statistics simple).
    """
    summaries = memory.fetch_summaries(state.k)
    return sample_swap_test(state.fingerprint, summaries[0], rng, copies=state.k).bit == 0


def store(
    state: CheckerState, memory: PublicMemory, msg, rng: np.random.Generator
) -> Verdict:
    """Handle a store request: encode, verify current memory, then write the codeword.

    Encoding parses msg and draws no randomness, so a bad message raises
    before any summary is served. The verification phase runs against the
    memory as found (and returns "buggy" with the state untouched if any test
    rejects); the very first store skips it since nothing has been stored
    yet. On success the checker writes E(msg), fingerprints that codeword
    locally, and acknowledges with Answer(1).
    """
    word = state.code.encode(msg)
    if state.initialized and not _verification_accepts(state, memory, rng):
        return Verdict.buggy()
    memory.write(word)
    state.fingerprint = make_fingerprint(word)
    return Verdict.answer(1)


def retrieve(
    state: CheckerState, memory: PublicMemory, index: int, rng: np.random.Generator
) -> Verdict:
    """Handle a retrieve request for message bit *index* (0-based).

    The index is checked before anything is served: TypeError unless it is
    one integer, IndexError outside [0, n). Then verification: k summaries
    fetched and tested; any rejection yields "buggy" immediately, with no
    decode and no refresh. Otherwise one local decode runs through counted
    memory reads, the private snapshot is replaced by k fresh summaries of
    the current memory, and the decoded bit is returned.
    """
    if not state.initialized:
        raise ProtocolError("retrieve before any store: checker holds no fingerprint")
    code = state.code
    index = operator.index(check_positions(index, code.params.n, name="bit index"))  # one bit per request

    if not _verification_accepts(state, memory, rng):
        return Verdict.buggy()

    decoded = code.decode(index, [int(rng.integers(code.params.m))], memory.read_bits)[0]

    state.fingerprint = memory.fetch_summaries(state.k)[0]
    return Verdict.answer(decoded)


def qubits_per_summary(m: int) -> int:
    """Qubits in one fingerprint of an m-bit word: ceil(log2 m)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return (m - 1).bit_length()


def stated_complexity(code: LocallyDecodableCode, k: int) -> ComplexityReport:
    """The protocol's cost: s = k * ceil(log2 m) private qubits, and per retrieve
    t = 2k * ceil(log2 m) + q, for its k test summaries, its k refresh summaries
    and the decode's q reads. complexity_report meters the same figures on a session."""
    per_summary = qubits_per_summary(code.params.m)
    return ComplexityReport(k * per_summary, 2 * k * per_summary + code.params.q)


def complexity_report(state: CheckerState, memory: PublicMemory) -> ComplexityReport:
    """Resource usage: private qubits held, and qubits the memory has served.

    s = k * ceil(log2 m). t charges ceil(log2 m) qubits per summary served
    (testing and refresh copies alike) plus one qubit per codeword bit read
    for decoding, all read from the memory's meters; after one store and one
    retrieve on a fresh memory, that is the traffic of the retrieve.
    """
    if memory.summary_log == 0:
        raise ProtocolError("complexity report requires a memory that has served a summary")
    per_summary = qubits_per_summary(state.code.params.m)
    return ComplexityReport(
        s_qubits=state.k * per_summary,
        t_qubits_per_retrieve=memory.summary_log * per_summary + memory.read_log,
    )
