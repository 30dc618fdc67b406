"""The online memory checker: store/retrieve protocols over adversarial public memory.

This module is the whole per-trial library: the fingerprint states
(Fingerprint, make_fingerprint), the sampled comparison test
(swap_accept_prob, sample_swap_test), the metered memory and the two
protocols. Its exact laws come from fingerprint.py and its closed forms
(required_k, the stated cost) from analysis.py. The run path reads those;
of this module it plays only harness._probe_complexity's one session.

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

Measured copies are discarded: each sampled test consumes one copy of each
input state in the resource accounting, and no post-measurement state is
tracked. Because k copies of one pair all see the same distance,
sample_swap_test runs them together: one distance, k uniforms.

Complexity accounting: private memory holds k fingerprints of ceil(log2 m)
qubits each. analysis.stated_complexity states the protocol's cost from the
code and k alone, and is what a run reports. PublicMemory meters the traffic
it serves (summaries and decode reads), and complexity_report reads t from
those meters alone: the measurement the stated cost is checked against.

A CheckerState plus its PublicMemory form one sequential protocol session;
distinct sessions are independent and may run in parallel workers. A run's
sessions are engine rows (engine.run_sessions), and the tests compare that
engine with store and retrieve here. The one library session a run plays is
harness._probe_complexity's store and retrieve, which check the stated cost
against complexity_report.

Threat model: the memory is passive between requests, and its reads are
honest. The adversary corrupts the public memory only between two requests
(adversary_flip); while a request runs, every summary and every decode read
comes from the memory's current contents. Soundness holds only under that
model: a memory whose stored bits stay intact but which flips the first
decode read of a retrieve passes every verification and answers the wrong
bit (n=4, k=7: 2,000 wrong answers in 2,000 sessions, and the next honest
retrieve answered correctly in all of them; ROADMAP item 10).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .analysis import ComplexityReport, qubits_per_summary, required_k
from .bits import as_bits, check_positions, hamming_distance
from .code import LocallyDecodableCode
from .fingerprint import p_single


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


class Fingerprint:
    """Immutable classical description of a phase state: the m-bit phase pattern.

    Two fingerprints are equal iff their phase patterns are equal; global phase
    never enters because the amplitude on j is pinned to (-1)^(phases_j)/sqrt(m).
    """

    __slots__ = ("phases",)

    def __init__(self, phases) -> None:
        arr = as_bits(phases, name="phases")
        arr.setflags(write=False)
        object.__setattr__(self, "phases", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Fingerprint is immutable")

    @property
    def m(self) -> int:
        return self.phases.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fingerprint):
            return NotImplemented
        return self.phases.shape == other.phases.shape and bool(
            np.array_equal(self.phases, other.phases)
        )

    def __hash__(self) -> int:
        return hash(self.phases.tobytes())

    def __repr__(self) -> str:
        body = "".join(str(int(b)) for b in self.phases[:16])
        tail = "..." if self.m > 16 else ""
        return f"Fingerprint({body}{tail}, m={self.m})"


@dataclass(frozen=True)
class SwapOutcome:
    """Measurement of the comparison test's control qubit: 0 accepts, 1 rejects."""

    bit: int

    def __post_init__(self) -> None:
        if self.bit not in (0, 1):
            raise ValueError(f"outcome bit must be 0 or 1, got {self.bit}")


def make_fingerprint(word: np.ndarray) -> Fingerprint:
    """Fingerprint of a bit vector the package built: phases = word bits, verbatim.

    Takes *word* over with no parse and no copy, and makes it read-only; the
    caller hands over a uint8 0/1 array it no longer writes. Values from
    outside the package go through Fingerprint(...), which parses them.
    """
    word.setflags(write=False)
    fp = object.__new__(Fingerprint)
    object.__setattr__(fp, "phases", word)
    return fp


def swap_accept_prob(a: Fingerprint, b: Fingerprint) -> float:
    """Probability the comparison test accepts: p_single(d/m) at Hamming distance d, in [1/2, 1]."""
    return p_single(hamming_distance(a.phases, b.phases) / a.m)


# Outcomes are immutable, so every test shares these two instances.
_OUTCOMES = (SwapOutcome(0), SwapOutcome(1))


def sample_swap_test(
    a: Fingerprint, b: Fingerprint, rng: np.random.Generator, copies: int = 1
) -> SwapOutcome:
    """Sample the comparison test on *copies* copies of the pair: 1 if any copy rejects.

    Each copy accepts with probability swap_accept_prob(a, b), computed once.
    rng.random(copies) yields the same doubles as *copies* scalar draws, so
    this consumes the stream exactly as *copies* single tests would. The
    sampled copies are consumed and must not be reused.
    """
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    p = swap_accept_prob(a, b)
    return _OUTCOMES[int((rng.random(copies) >= p).any())]


class PublicMemory:
    """The adversary-writable m-bit array, with a log of traffic served to the checker.

    read_log counts individual bit positions served for local decoding;
    summary_log counts summary fingerprints served. Adversary mutations go
    through adversary_flip and are never logged: the logs meter checker
    queries only.
    """

    def __init__(self) -> None:
        self._bits: np.ndarray | None = None
        self.read_log = 0
        self.summary_log = 0

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
