"""Batch session engine: a run's trials in chunks, one array row per session.

run_sessions plays the protocol of checker.store/retrieve on a chunk of T
sessions at once. Memory is a (T, W) uint64 array of packed rows, W =
ceil(m / 64): codeword position a is bit a & 63 of word a >> 6, and the
padding bits past m are zero in every array, so they never count. The stored
fingerprint and the baseline (the codeword of the last accepted store) are
(T, W) snapshots in the same layout. A verification is one row-wise Hamming
distance d, the popcount of the xor of the words, and one uniform per
session, compared with fingerprint.p_accept(d/m, k): that is the chance
that all k copies of the comparison test accept, so the verdict has exactly
the law of k copies without drawing k numbers. A decode is the code's decode
on the chunk's rows, each row reading bit a & 63 of its own word a >> 6;
checker.retrieve runs the same method on one row of bytes. An attack op runs
its schedule's apply on the chunk's rows, the one corruption method each
schedule has; adversary.apply_step runs the same method on one packed row.
The per-trial checker.store and retrieve stay the library API and the
reference that the tests compare this engine's verification, decode and
refresh against.

Only live sessions hold rows. A session's first reject ends it, so after a
verification with rejects the survivors' rows move to the front of the run's
buffers, and every later op of the chunk works on them alone. Between
refreshes (a store's codeword, a retrieve's snapshot) only attack ops change
the memory, so a verification with no attack op since the last refresh sees
distance 0 on every row: it compares its uniforms with the scalar
p_accept(0.0, k), with no distance pass.

Every draw is counter-based: the draw of trial i's op j at slot s is a
SplitMix64-style hash of (master seed, i, j, s) (Steele, Lea & Flood, "Fast
splittable pseudorandom number generators", OOPSLA 2014; Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011). No generator state
passes between trials, so results do not depend on the chunk size, and
run_sessions(config, k, range(i, i + 1)) replays trial i alone.

The package has one memory rule, row_blocks: a loop over rows takes them in
blocks of at most max(1, CHUNK_BYTES // row_bytes) rows, where row_bytes is
the most any one array of the loop holds per row, so no such array exceeds
CHUNK_BYTES unless one row does. Each loop states only its own row_bytes. A
chunk here is a block of sessions at 8 * max(W, n, 3) bytes each: the packed
row, the int64 bits of a drawn message and the protocol's 3 draws. That is
8,192 sessions at n=4, 4,096 at n=8, 32 at n=16 and 2 at n=20. A run
allocates its (T, W) arrays once and every chunk reuses them, and each op's
draw keys are derived as the op runs, so no array grows with the script.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .bits import as_bits, read_rows, word_count
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
_PROTOCOL_SLOTS = 3

_BUGGY = 2  # verdict code of a reject; an answer's code is its bit


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
    exactly as the engine makes it. Each argument lies in [0, 2^64)."""
    for name, value in (("master seed", master_seed), ("trial", trial), ("op", op), ("slot", slot)):
        if not isinstance(value, int) or not 0 <= value < 2**64:
            raise ValueError(f"{name} must be an integer in [0, 2^64), got {value!r}")
    keys = _stream(trial_keys(master_seed, np.array([trial], dtype=np.uint64)), op)
    return int(OpDraws(keys).u64(slot)[0])


def _uniform(draws: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of each draw."""
    return (draws >> np.uint64(11)) * 2.0**-53


def _below(draws: np.ndarray, bound: int) -> np.ndarray:
    """Integers in [0, bound): floor(uniform * bound). At a power-of-two bound
    up to 2^53 the product is exact, so this is the draw's top bits and
    exactly uniform: such a bound takes one shift instead. Bound 1 gives
    zeros, since a shift by all 64 bits is undefined."""
    bits = bound.bit_length() - 1
    if bound < 1 or bound & (bound - 1) or bits > 53:
        return (_uniform(draws) * bound).astype(np.int64)
    if bits == 0:
        return np.zeros(np.shape(draws), np.int64)
    return (draws >> np.uint64(64 - bits)).view(np.int64)


def _messages(draws: np.ndarray, n: int) -> np.ndarray:
    """Uniform n-bit messages, one (n,) uint8 row per draw, first bit most significant."""
    return ((_below(draws, 1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)


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
    marks the ops after a session's reject. ops names each column's op kind.
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


def run_sessions(config, k: int, trials: range) -> Tally:
    """Run the sessions of config whose trial indices lie in trials, in chunks,
    with k >= 1 comparison copies per verification; verdict codes are kept
    when config.record_trials is set. trials must have step 1 and lie in
    [0, 2^64), since trial indices are uint64 counters; an empty range gives
    an empty tally.

    Each explicit message is parsed once, here.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if trials.step != 1:
        raise ValueError(f"trials must be a range of step 1, got {trials!r}")
    if trials.start < 0 or trials.stop > 2**64:
        raise ValueError(f"trials must lie in [0, 2^64), got {trials!r}")
    script = config.build_script()
    n_retrieves = sum(op.op == "retrieve" for op in script)
    tally = Tally([0] * n_retrieves, [0] * n_retrieves, ops=tuple(op.op for op in script))
    if config.record_trials:
        tally.codes = np.full((len(trials), len(script)), -1, dtype=np.int8)
    if not trials:
        return tally
    specs = {config.message if op.message is None else op.message for op in script if op.op == "store"}
    messages = {spec: as_bits(spec, name="message") for spec in specs - {"random"}}
    m = config.code.params.m
    # per session: its packed row, a drawn message's int64 bits and the protocol's draws
    session_bytes = 8 * max(word_count(m), config.n, _PROTOCOL_SLOTS)
    buffers = _Buffers(next(row_blocks(len(trials), session_bytes)).stop, m)
    for rows in row_blocks(len(trials), session_bytes):
        indices = np.arange(trials.start + rows.start, trials.start + rows.stop, dtype=np.uint64)
        codes = _run_chunk(config, k, script, messages, indices, buffers, tally)
        if codes is not None:
            tally.codes[rows] = codes
    return tally


class _Buffers:
    """The (T, W) word arrays every chunk of a run reuses. A fresh array that
    large would come from the operating system page by page at every op."""

    def __init__(self, size: int, m: int) -> None:
        shape = (size, word_count(m))
        self.memory = np.empty(shape, dtype=np.uint64)
        self.snapshot = np.empty(shape, dtype=np.uint64)
        self.baseline = np.empty(shape, dtype=np.uint64)
        self.diff = np.empty(shape, dtype=np.uint64)
        self.counts = np.empty(shape, dtype=np.uint8)

    def compact(self, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Move rows keep (ascending) of memory and baseline to the front, and
        return the two packed views. Each is gathered into the snapshot or diff
        array, which then trade places with it, so no array is allocated; the
        snapshot and diff arrays hold no rows that count afterwards."""
        rows = keep.size
        np.take(self.memory, keep, axis=0, out=self.snapshot[:rows], mode="clip")
        np.take(self.baseline, keep, axis=0, out=self.diff[:rows], mode="clip")
        self.memory, self.snapshot = self.snapshot, self.memory
        self.baseline, self.diff = self.diff, self.baseline
        return self.memory[:rows], self.baseline[:rows]

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise Hamming distances of two (rows, W) arrays of packed rows."""
        rows = a.shape[0]
        diff = np.bitwise_xor(a, b, out=self.diff[:rows])
        return np.bitwise_count(diff, out=self.counts[:rows]).sum(axis=1, dtype=np.int32)


def _accept_prob(distance: np.ndarray, m: int, k: int):
    """p_accept(d/m, k) per row: the chance that all k copies of the comparison
    test accept at distance d, computed once per distinct distance."""
    values = sorted(set(distance.tolist()))
    return np.array([p_accept(d / m, k) for d in values])[np.searchsorted(values, distance)]


def _run_chunk(config, k: int, script, messages: dict, indices: np.ndarray, buffers: _Buffers, tally: Tally):
    """Play the script on one chunk, one session per row, and return the chunk's
    (rows, ops) verdict codes, or None when tally records none.

    Row r of the buffers belongs to chunk session live[r], and keys and message
    keep the same rows. After a verification with rejects, the survivors'
    memory and baseline rows are packed to the front (_Buffers.compact), so the
    op and every later one run on live sessions only. fresh marks that no attack
    op has run and no row has moved since the last refresh: only attack ops
    change the memory between refreshes, so every live row then sits at
    distance 0 from stored, and a retrieve keeps stored as its snapshot."""
    code = config.code
    n, m = code.params.n, code.params.m
    live = np.arange(indices.size)
    keys = trial_keys(config.seed, indices)
    memory = buffers.memory[: indices.size]
    stored = baseline = message = None
    fresh = False
    codes = None if tally.codes is None else np.full((indices.size, len(script)), -1, dtype=np.int8)
    attack_step = retrieve_pos = cycle = 0
    for j, op in enumerate(script):
        draws = OpDraws(_stream(keys, j))  # op j's key of every live session, derived as the op runs
        if op.op == "attack":
            config.attack.apply(attack_step, memory, baseline, code, draws)
            attack_step += 1
            fresh = False
            continue
        drawn = draws.u64(np.arange(_PROTOCOL_SLOTS))  # every draw of a store or retrieve, one column per slot
        if op.op == "retrieve":
            tally.reached[retrieve_pos] += live.size
        if stored is not None:  # the first store has nothing to verify
            accept_prob = p_accept(0.0, k) if fresh else _accept_prob(buffers.distance(stored, memory), m, k)
            accept = _uniform(drawn[:, VERIFY_SLOT]) < accept_prob
            if not accept.all():
                reject = ~accept
                tally.buggy += int(np.count_nonzero(reject))
                # "false buggy" means rejecting a memory that matches the stored codeword
                tally.false_buggy += int(np.count_nonzero(buffers.distance(memory[reject], baseline[reject]) == 0))
                if codes is not None:
                    codes[live[reject], j] = _BUGGY
                keep = np.flatnonzero(accept)
                if not keep.size:
                    break
                live, keys, drawn, message = live[keep], keys[keep], drawn[keep], message[keep]
                memory, baseline = buffers.compact(keep)
                fresh = False  # stored no longer lines up with the rows
        if op.op == "store":
            spec = config.message if op.message is None else op.message
            if spec == "random":
                message = _messages(drawn[:, MESSAGE_SLOT], n)
            else:
                message = np.broadcast_to(messages[spec], (live.size, n))
            baseline = code.encode_batch(message, out=buffers.baseline[: live.size])
            np.copyto(memory, baseline)
            stored = baseline
            verdict = 1
        else:
            index = config.retrieve_index if op.index is None else op.index
            if index == "random":
                index = _below(drawn[:, INDEX_SLOT], n)
            elif index == "cycle":
                index, cycle = cycle % n, cycle + 1
            mask = _below(drawn[:, MASK_SLOT], m)
            verdict = code.decode(index, mask, lambda pos: read_rows(memory, pos))
            tally.correct += int(np.count_nonzero(verdict == message[np.arange(live.size), index]))
            tally.accepted[retrieve_pos] += live.size
            retrieve_pos += 1
            if not fresh:
                stored = buffers.snapshot[: live.size]
                np.copyto(stored, memory)
        fresh = True
        if codes is not None:
            codes[live, j] = verdict
    return codes
