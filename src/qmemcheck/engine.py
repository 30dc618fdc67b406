"""Batch session engine: a run's trials in chunks, one array row per session.

run_sessions plays the protocol of checker.store/retrieve on a chunk of T
sessions at once. Everything the checker decides depends on the session's
corruption pattern P, the memory xor the codeword of its last store, and on
the stored message, which the engine keeps instead of its codeword, so a store
zeroes P and encodes nothing. A verification is one Hamming distance d from
the memory to the stored fingerprint: the weight of P right after a store,
else of P xor the snapshot S of P that the last retrieve took. One uniform per
session is compared with fingerprint.p_accept(d/m, k): that is the chance that
all k copies of the comparison test accept, so the verdict has exactly the law
of k copies without drawing k numbers. The code is linear and its decode a xor
of reads, so a retrieve answers the stored message bit xor the decode of P,
and it is correct exactly where that decode is 0; checker.retrieve runs the
same decode on one row of memory bytes. The decode of a clean codeword is
exact, so a retrieve with no attack op since its store, where P is 0, answers
the stored bit and draws no decode mask. The per-trial checker.store and
retrieve stay the library API and the reference that the tests compare this
engine's verification, decode and refresh against. The complexity a run
reports is the stated cost, analysis.stated_complexity, which the harness
checks against the meters of one library store and retrieve; no engine
session is metered.

Two samplers hold P, and _run_chunk plays the same plan, draws, verdict codes
and Tally on either one; a retrieve runs code.decode over the sampler's read
of P's bits:
- The dense sampler (_Buffers) holds P as a (T, W) uint64 array of packed
  rows, W = ceil(m / 64): position a is bit a & 63 of word a >> 6, and the
  padding bits past m are zero in every array, so they never count. A read
  takes the bits of P, and an attack op runs its schedule's apply on the
  pattern rows and stored messages, the one corruption method each schedule
  has. Every answer and distance is the one the memory itself gives, and an
  op costs O(m) a session.
- The deferred-decision sampler (lazy.LazySampler) holds no rows: per session,
  the counts of unread positions in each (P bit, S bit) class and the
  positions its decodes have read. It plays the steps whose flip rule
  (AttackSchedule.flips) has the uniform policy. Their law is the same under
  every permutation of the positions, so given the counts and the read
  positions' classes the unread positions are exchangeable, and a position's
  class is drawn only when a decode first reads it; lazy.py gives the
  argument. An op costs O(reads) a session, whatever m is.
_lazy_reads gives a config to the lazy sampler when m >= LAZY_MIN_M (2^15),
every attack op is a uniform flip step, and the read set holds at most
LAZY_READS * m / LAZY_MIN_M positions (16 at m = 2^15, 32 at m = 2^16); both
constants come from a measured crossover, and the dense sampler runs all
other configs. The rule reads only the config, so a trial replayed alone
takes its run's sampler. The two samplers answer differently from the same
draws, each with the exact law.

Only live sessions hold state. A session's first reject ends it, so after a
verification with rejects the survivors move to the front of the sampler's
arrays, and every later op of the chunk works on them alone. Between
refreshes (a store's zero pattern, a retrieve's snapshot) only attack ops
change the pattern, so with no attack op since the last refresh every row sits at
distance 0: while p_accept(0.0, k) is 1 such an op has no verification at all.
An attack op whose step law is {0: 1} (a noop) changes no pattern and counts as absent.

Every draw is counter-based: the draw of trial i's op j at slot s is a
SplitMix64-style hash of (master seed, i, j, s) (Steele, Lea & Flood, "Fast
splittable pseudorandom number generators", OOPSLA 2014; Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011). No generator state
passes between trials, so results do not depend on the chunk size, and
run_sessions(config, range(i, i + 1)) replays trial i alone.

The package has one memory rule, row_blocks: a loop over rows takes them in
blocks of at most max(1, CHUNK_BYTES // row_bytes) rows, where row_bytes is
the most any one array of the loop holds per row, so no such array exceeds
CHUNK_BYTES unless one row does. Each loop states only its own row_bytes. A
dense chunk is a block of sessions at 8 * max(W, n, 3) bytes each: the packed
row, the int64 bits of a drawn message and the protocol's 3 draws. That is
8,192 sessions at n=4, 4,096 at n=8, 32 at n=16 and 2 at n=20, and a run
allocates its (T, W) arrays once for every chunk to reuse. A lazy chunk takes
8 * max(reads, n, 4) bytes a session: the read positions, a drawn message's
bits and the 4 class counts.

The config resolves its script once (ExperimentConfig.ops): each op's kind,
its attack step or retrieve position, and its fixed message or index, or an
attack op's step law. The run's plan (_draw_plan) adds only the protocol
slots each op reads, fixed once per run by those ops and k. A slot no op
reads is never hashed, and draws are addressed by counter, so a skipped slot
changes no other draw. A chunk only plays the plan on its rows. A chunk of T
sessions takes the script in row_blocks blocks of ops and hashes each block
in two passes, one for its ops' keys and one for all its planned slots; an
op's key takes 8 * T bytes and so does each slot, so an op's row_bytes is
8 * T times the most slots any op plans, at least 1. No array grows with the
script. The lazy sampler hashes its own few draws from the op keys where it
makes them.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .bits import read_rows, word_count
from .fingerprint import p_accept

CHUNK_BYTES = 1 << 18


def row_blocks(rows: int, row_bytes: int) -> Iterator[slice]:
    """Consecutive slices that cover [0, rows) once and in order, each of at most
    max(1, CHUNK_BYTES // row_bytes) rows: the blocks of a loop whose arrays hold up
    to row_bytes bytes per row. A row_bytes of 0 or above CHUNK_BYTES gives 1-row blocks."""
    size = CHUNK_BYTES // row_bytes if 0 < row_bytes <= CHUNK_BYTES else 1
    for first in range(0, rows, size):
        yield slice(first, min(first + size, rows))


# SplitMix64's increment, 2^64 divided by the golden ratio, and its output mix
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Draw slots of the protocol's own draws; an attack op's slots belong to its schedule.
VERIFY_SLOT = 0  # the uniform of a store's or retrieve's verification
MESSAGE_SLOT = 1  # a store's random message
INDEX_SLOT = 1  # a retrieve's random index
MASK_SLOT = 2  # a retrieve's decode mask

_BUGGY = 2  # verdict code of a reject; an answer's code is its bit

# The deferred-decision sampler plays a config only at m >= LAZY_MIN_M, and only
# where its read set holds at most LAZY_READS * m / LAZY_MIN_M positions
# (_lazy_reads): an op costs it O(reads) and costs the dense sampler O(m). Both
# were set from a measured crossover.
LAZY_MIN_M = 1 << 15
LAZY_READS = 16


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function, in place: a bijection of uint64 in which
    every output bit depends on every input bit."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _stream(key: np.ndarray, count) -> np.ndarray:
    """Output number count (0-based, an int or an integer array) of the
    SplitMix64 streams seeded with the uint64 array key: mix(key + (count + 1)
    * gamma) mod 2^64, a bijection of count for a fixed key."""
    if isinstance(count, int):
        step = np.uint64((count + 1) * _GAMMA % 2**64)
    else:
        step = (np.asarray(count).astype(np.uint64) + np.uint64(1)) * np.uint64(_GAMMA)
    return _mix(key + step)


def trial_keys(master_seed: int, trials: np.ndarray) -> np.ndarray:
    """Each trial's key: output trial of the stream keyed by the run's master seed."""
    return _stream(_stream(np.zeros(1, dtype=np.uint64), master_seed), trials)


def counter_draw(master_seed: int, trial: int, op: int, slot: int) -> int:
    """The 64-bit draw of one trial's op (its script position) at one slot,
    exactly as the engine makes it. Each argument is an integer in [0, 2^64),
    a Python or numpy one, but not a bool."""
    args = {"master seed": master_seed, "trial": trial, "op": op, "slot": slot}
    for name, value in args.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not 0 <= int(value) < 2**64:
            raise ValueError(f"{name} must be an integer in [0, 2^64), got {value!r}")
    master_seed, trial, op, slot = map(int, args.values())
    return int(_stream(_stream(trial_keys(master_seed, np.array([trial], dtype=np.uint64)), op), slot)[0])


def _uniform(draws: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of each draw."""
    return (draws >> np.uint64(11)) * 2.0**-53


def _below(draws: np.ndarray, bound: int) -> np.ndarray:
    """Integers in [0, bound): floor(uniform * bound). At a power-of-two bound
    from 2 to 2^53 the product is exact, so this is the draw's top bits and
    exactly uniform: such a bound takes one shift instead. Bound 1 takes the
    product, which is 0, since a shift by all 64 bits is undefined."""
    bits = bound.bit_length() - 1
    if not 0 < bits <= 53 or bound & (bound - 1):
        return (_uniform(draws) * bound).astype(np.int64)
    return (draws >> np.uint64(64 - bits)).view(np.int64)


def _messages(draws: np.ndarray, n: int) -> np.ndarray:
    """Uniform n-bit messages, one (n,) uint8 row per draw, first bit most significant:
    the draw's top n bits, which are _below(draws, 2^n) for n <= 53."""
    return np.unpackbits(draws.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1, count=n)


class OpDraws:
    """The draws of one op, one row per session of a chunk: keys[r] is output
    op of row r's trial key, and the draw at slot s is output s of its stream.

    Each method takes a slot (or an array of slots) and optionally rows,
    an index array into the sessions; with rows, slot[i] is drawn for row
    rows[i], else every slot for every row.
    """

    def __init__(self, keys: np.ndarray) -> None:
        self.keys = keys

    def u64(self, slot, rows=None) -> np.ndarray:
        keys = self.keys if rows is None else self.keys[rows]
        if rows is None and np.ndim(slot):
            keys = keys[:, None]
        return _stream(keys, slot)

    def below(self, bound: int, slot, rows=None) -> np.ndarray:
        return _below(self.u64(slot, rows), bound)

    def messages(self, n: int, slot, rows=None) -> np.ndarray:
        return _messages(self.u64(slot, rows), n)

    def distinct(self, bound: int, count: int) -> np.ndarray:
        """(rows, count) array: per row, a uniform count-subset of [0, bound), sorted.

        Draws count values, then redraws only the repeats until every row is
        distinct; the rule ignores the values' identities, so by symmetry each
        subset is equally likely. Above bound/2 it samples the complement, so
        the draws stay O(count) and no row draws bound keys.
        """
        t = self.keys.size
        if 2 * count > bound:
            keep = np.ones((t, bound), dtype=bool)
            keep[np.arange(t)[:, None], self.distinct(bound, bound - count)] = False
            return np.nonzero(keep)[1].reshape(t, count)
        values = self.below(bound, np.arange(count)).astype(np.int32)  # m < 2^31; sorts twice as fast
        if count < 2:
            return values
        for round_ in itertools.count(1):
            values.sort(axis=1)
            flat = values.reshape(-1)
            repeat = flat[1:] == flat[:-1]
            repeat[count - 1 :: count] = False  # a row's first value repeats nothing
            where = np.flatnonzero(repeat) + 1
            if not where.size:
                return values
            rows, cols = np.divmod(where, count)
            flat[where] = self.below(bound, (round_ << 32) + cols, rows)


@dataclass
class Tally:
    """Run-wide session counters. A session stops at its first reject, so the
    retrieves it reached and accepted are prefixes of the script's retrieves.

    codes holds the recorded verdicts as a (trials, ops) int8 array, or None
    when not recorded: an answer's code is its bit, a reject's is 2, and -1
    marks an op with no verdict: an attack op, or an op after the session's
    reject. ops names each column's op kind.
    """

    reached: list[int]
    accepted: list[int]
    buggy: int = 0
    false_buggy: int = 0
    correct: int = 0
    codes: np.ndarray | None = None
    ops: tuple[str, ...] = ()

    def labels(self) -> list[tuple[str, str, str]]:
        """Per op, the labels of its verdict codes 0, 1 and 2."""
        return [(f"{op}:0", f"{op}:1", f"{op}:buggy") for op in self.ops]

    @cached_property
    def verdicts(self) -> list[list[str]] | None:
        """One verdict stream of labels per trial, built from codes on first access."""
        if self.codes is None:
            return None
        labels = self.labels()
        return [[labels[j][c] for j, c in enumerate(row) if c >= 0] for row in self.codes.tolist()]


def _draw_plan(config) -> list[tuple]:
    """The slots each op of config's script reads: one (kind, slots, step, value)
    tuple per op, with kind, step and value as config.ops resolves them.

    slots are the protocol slots the op reads, in slot order: VERIFY at every
    store or retrieve but the first op (a store, as config.ops requires), unless
    no attack op has run since the last refresh and distance 0 accepts surely
    (p_accept(0.0, k) == 1.0 at k = config.resolved_k(), read from the law as
    the run starts); MESSAGE at a store and INDEX at a retrieve whose value is
    None, which the op draws; MASK at a retrieve only when an attack op has run
    since the last store, for with none P is 0 and the decode of a clean
    codeword is exact, so the retrieve answers the stored bit. An attack op
    reads only its op key. An attack op whose step law (its value) is {0: 1},
    which harness._attach_bounds reads as honest (a noop, or no flips),
    changes no pattern and counts as absent.
    Freshness and cleanness depend on the script alone, since rows move only at
    a verification, which a fresh op skips, so the plan is static."""
    sure = p_accept(0.0, config.resolved_k()) == 1.0
    plan = []
    fresh = clean = False
    for j, (kind, step, value) in enumerate(config.ops):
        slots = (VERIFY_SLOT,) if j and kind != "attack" and not (fresh and sure) else ()
        if kind == "store" and value is None:
            slots += (MESSAGE_SLOT,)
        elif kind == "retrieve":
            slots += ((INDEX_SLOT,) if value is None else ()) + (() if clean else (MASK_SLOT,))
        if kind != "attack":  # a store or retrieve refreshes, and only a store zeroes P
            fresh, clean = True, clean or kind == "store"
        elif value != {0: 1.0}:
            fresh = clean = False
        plan.append((kind, slots, step, value))
    return plan


def run_sessions(config, trials: range) -> Tally:
    """Run the sessions of config whose trial indices lie in trials, in chunks,
    with k = config.resolved_k() comparison copies per verification; verdict
    codes are kept when config.record_trials is set. trials must have step 1
    and lie in [0, 2^64), since trial indices are uint64 counters; an empty
    range gives an empty tally. The deferred-decision sampler (lazy.LazySampler)
    plays the sessions where _lazy_reads gives it a read set, and the dense one
    (_Buffers) plays all others.
    """
    if trials.step != 1:
        raise ValueError(f"trials must be a range of step 1, got {trials!r}")
    if trials.start < 0 or trials.stop > 2**64:
        raise ValueError(f"trials must lie in [0, 2^64), got {trials!r}")
    plan = _draw_plan(config)
    kinds = tuple(kind for kind, *_ in plan)
    tally = Tally([0] * kinds.count("retrieve"), [0] * kinds.count("retrieve"), ops=kinds)
    size = max(0, trials.stop - trials.start)  # len() of a range of 2^63 or more raises OverflowError
    if config.record_trials:
        tally.codes = np.full((size, len(plan)), -1, dtype=np.int8)
    if not size:
        return tally
    n, m = config.code.params.n, config.code.params.m
    reads = _lazy_reads(config, plan)
    if reads is None:
        # per session: its packed row, a drawn message's int64 bits and the protocol's 3 draws
        session_bytes = 8 * max(word_count(m), n, 3)
        state = _Buffers(next(row_blocks(size, session_bytes)).stop, m)
    else:
        # per session: its read positions, a drawn message's int64 bits and its 4 class counts
        session_bytes = 8 * max(reads, n, 4)
        from .lazy import LazySampler  # loaded only by the runs that take it

        state = LazySampler(m, reads)
    for rows in row_blocks(size, session_bytes):
        indices = np.arange(trials.start + rows.start, trials.start + rows.stop, dtype=np.uint64)
        _run_chunk(config, plan, indices, state, tally, None if tally.codes is None else tally.codes[rows])
    return tally


def _lazy_reads(config, plan) -> int | None:
    """The read-set size the deferred-decision sampler needs for config's plan
    (_draw_plan), or None where the dense sampler plays it: at m below
    LAZY_MIN_M, where one of the plan's attack ops is no flip step or flips by
    a policy other than "uniform" (AttackSchedule.flips), or where the read set
    would pass LAZY_READS * m / LAZY_MIN_M. Each decode reads q positions, and a
    store empties the read set, so the size is q times the most retrieves with a
    MASK slot between two stores."""
    params = config.code.params
    if params.m < LAZY_MIN_M:
        return None
    rules = [config.attack.flips(step, params.m) for kind, _, step, _ in plan if kind == "attack"]
    if any(rule is None or rule[2] != "uniform" for rule in rules):
        return None
    most = reads = 0
    for kind, slots, *_ in plan:
        reads = 0 if kind == "store" else reads + params.q * (MASK_SLOT in slots)
        most = max(most, reads)
    return most if most * LAZY_MIN_M <= LAZY_READS * params.m else None


class _Buffers:
    """The dense sampler: each live session's pattern P as a packed row, in
    (T, W) word arrays that every chunk of a run reuses. A new array that large
    would come from the operating system page by page at every op.

    live views the live sessions' rows of pattern. stored is what a
    verification compares P with: the snapshot a retrieve takes when it
    verifies, or None after a store, for the zero pattern of its codeword."""

    def __init__(self, size: int, m: int) -> None:
        shape = (size, word_count(m))
        self.pattern = np.empty(shape, dtype=np.uint64)
        self.snapshot = np.empty(shape, dtype=np.uint64)
        self.diff = np.empty(shape, dtype=np.uint64)
        self.counts = np.empty(shape, dtype=np.uint8)

    def start(self, size: int) -> None:
        """Take the first size rows for a chunk's sessions; its first op is a store."""
        self.live, self.stored = self.pattern[:size], None

    def attack(self, schedule, step, message, code, draws) -> None:
        schedule.apply(step, self.live, message, code, draws)

    def verify_distance(self) -> np.ndarray:
        """Row-wise Hamming weights of P, or of P xor the snapshot."""
        rows = len(self.live)
        p = self.live if self.stored is None else np.bitwise_xor(self.live, self.stored, out=self.diff[:rows])
        return np.bitwise_count(p, out=self.counts[:rows]).sum(axis=1, dtype=np.int32)

    def clean(self, rows: np.ndarray) -> np.ndarray:
        """Whether P is 0, for each of the live rows picked by the boolean mask rows."""
        return ~self.live[rows].any(axis=1)

    def keep(self, keep: np.ndarray, store: bool) -> None:
        """Keep the live rows keep (ascending). A store zeroes the patterns next, so
        there only the view shrinks and no row is gathered."""
        self.live = self.pattern[: keep.size] if store else self.compact(keep)

    def store(self) -> None:
        self.live.fill(0)
        self.stored = None

    def read(self, positions: np.ndarray, draws) -> np.ndarray:
        """The P bits at positions, a (rows, q) array."""
        return read_rows(self.live, positions)

    def refresh(self) -> None:
        self.stored = self.snapshot[: len(self.live)]
        np.copyto(self.stored, self.live)

    def compact(self, keep: np.ndarray) -> np.ndarray:
        """Move rows keep (ascending) of pattern to the front, and return the
        packed view. They are gathered into the snapshot array, which then
        trades places with pattern, so no array is allocated; the snapshot
        array holds no rows that count afterwards."""
        rows = keep.size
        np.take(self.pattern, keep, axis=0, out=self.snapshot[:rows], mode="clip")
        self.pattern, self.snapshot = self.snapshot, self.pattern
        return self.pattern[:rows]


def _per_distinct(values: np.ndarray, f) -> np.ndarray:
    """f of each entry of an integer array, as doubles, called once per distinct value."""
    # the distinct values as np.unique finds them, which costs twice as much on a
    # few dozen rows, and whose first call maps up to 1.3 MB more of numpy's pages
    ranked = np.sort(values, axis=None)
    distinct = np.concatenate([ranked[:1], ranked[1:][ranked[1:] != ranked[:-1]]])
    return np.array([f(v) for v in distinct.tolist()], dtype=float)[np.searchsorted(distinct, values)]


def _accept_prob(distance: np.ndarray, m: int, k: int):
    """p_accept(d/m, k) per row: the chance that all k copies of the comparison
    test accept at distance d, computed once per distinct distance."""
    return _per_distinct(distance, lambda d: p_accept(d / m, k))


def _run_chunk(config, plan, indices: np.ndarray, state, tally: Tally, codes):
    """Play the plan (_draw_plan) on one chunk, one session per row, on the sampler
    state (_Buffers or lazy.LazySampler), writing the verdict codes into codes, the
    chunk's rows of tally.codes, unless it is None. Each op's kind, step and value
    are the plan's, as config.ops resolved them; a value of None is drawn at the
    op's planned slot.

    Row r of the state belongs to chunk session live[r], and keys, message and the
    block's op keys and draws (one row per op or planned slot, one column per
    session) keep the same sessions. After a verification with rejects, the state
    keeps the survivors' rows only, so the op and every later one run on live
    sessions only. An op the plan does not verify follows a refresh with no
    corrupting attack op, so P still equals its snapshot in every live row; a
    retrieve the plan gives no MASK has P = 0."""
    code, k = config.code, config.resolved_k()
    n, m = code.params.n, code.params.m
    live = np.arange(indices.size)
    keys = trial_keys(config.seed, indices)
    state.start(indices.size)
    message = None
    for block in row_blocks(len(plan), 8 * indices.size * max(1, *(len(slots) for _, slots, *_ in plan))):
        op_keys = _stream(keys, np.arange(block.start, block.stop)[:, None])
        planned = np.array([slot for _, slots, *_ in plan[block] for slot in slots], dtype=np.int64)
        drawn = _stream(op_keys.repeat([len(slots) for _, slots, *_ in plan[block]], axis=0), planned[:, None])
        row = 0
        for j in range(block.start, block.stop):
            kind, slots, step, value = plan[j]
            if kind == "attack":
                state.attack(config.attack, step, message, code, OpDraws(op_keys[j - block.start]))
                continue
            read = dict(zip(slots, range(row, row + len(slots))))  # slot -> row of drawn
            row += len(slots)
            if kind == "retrieve":
                tally.reached[step] += live.size
            if VERIFY_SLOT in read:
                accept = _uniform(drawn[read[VERIFY_SLOT]]) < _accept_prob(state.verify_distance(), m, k)
                if not accept.all():
                    reject = ~accept
                    tally.buggy += int(np.count_nonzero(reject))
                    # "false buggy" means rejecting a memory that matches the stored codeword: P = 0
                    tally.false_buggy += int(np.count_nonzero(state.clean(reject)))
                    if codes is not None:
                        codes[live[reject], j] = _BUGGY
                    keep = np.flatnonzero(accept)
                    if not keep.size:
                        return
                    live, keys, op_keys, drawn = live[keep], keys[keep], op_keys[:, keep], drawn[:, keep]
                    state.keep(keep, kind == "store")
                    if kind != "store":
                        message = message[keep]
            if kind == "store":
                message = (
                    _messages(drawn[read[MESSAGE_SLOT]], n) if value is None else np.broadcast_to(value, (live.size, n))
                )
                state.store()
                verdict = 1
            else:
                index = _below(drawn[read[INDEX_SLOT]], n) if value is None else value
                wrong = 0  # with no attack op since the store, P is 0 and so is its decode
                if MASK_SLOT in read:
                    masks = _below(drawn[read[MASK_SLOT]], m)
                    draws = OpDraws(op_keys[j - block.start])
                    # the code is linear and decodes by a xor of reads: the answer is the stored bit xor P's decode
                    wrong = code.decode(index, masks, lambda positions: state.read(positions, draws))
                verdict = message[np.arange(live.size), index] ^ wrong
                tally.correct += live.size - int(np.count_nonzero(wrong))
                tally.accepted[step] += live.size
                if VERIFY_SLOT in read:
                    state.refresh()
            if codes is not None:
                codes[live, j] = verdict
