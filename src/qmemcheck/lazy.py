"""The deferred-decision sampler: sessions of a uniform schedule with no pattern rows.

engine.run_sessions plays a config here when engine._lazy_reads gives it a
read set, and on the dense sampler (engine._DenseSampler) otherwise; the plan,
draws, verdict codes and Tally are the engine's in both. A session's corruption
pattern P is the memory xor the codeword of its last store, and S is the
snapshot of P at its last refresh. Every position is in one of four classes,
2 * (its P bit) + (its S bit). A session keeps:
- counts, how many unread positions are in each class;
- its read set: the positions that decodes have read since the last store,
  each with its class.

It plays only the steps whose flip rule (AttackSchedule.flips) has the
uniform policy: a uniform d-subset of all m positions flips (a uniform
flip_count step), or of the positions with P = 0 (an incremental step with
the uniform policy), or none (a noop). The law of such a step, of a
verification (it reads only the distance) and of a decode mask (uniform and
independent of P) is the same under every permutation of the positions. So,
given the counts and the read positions' classes, every arrangement of the
unread classes over the unread positions is equally likely. A position's class
is therefore drawn only when a decode first reads it, in proportion to the
counts, and that is exact: the principle of deferred decisions (Motwani &
Raghavan, "Randomized Algorithms", 1995, 3.5). A step draws which read
positions it flips one after another, in one loop over the read set, and
splits its other flips over the unread classes by hypergeometric draws. An
op costs O(reads) a session, and nothing grows with m.

The sampler's draws come from the op keys as every engine draw does, at slots
of its own (HYPER_SLOT, READ_FLIP_SLOT, QUERY_SLOT); an attack op's slots
belong to the sampler here, since the schedule's apply never runs.
"""

from __future__ import annotations

import math

import numpy as np

from .adversary import check_fresh
from .engine import _per_distinct, _uniform, row_blocks

HYPER_SLOT = 0  # an attack op's hypergeometric draw for class c, at slot HYPER_SLOT + c
READ_FLIP_SLOT = 4  # an attack op's draw for read-set entry j, at slot READ_FLIP_SLOT + j
QUERY_SLOT = 3  # a retrieve's class draw for its decode's query q, at slot QUERY_SLOT + q

# A hypergeometric search takes this many standard deviations, and 8 values more, each
# way from the mode at a time (hypergeometric).
HYPER_SIGMAS = 8

# UNUSED marks an unfilled read-set entry, which no table below counts.
UNUSED = 4
_MISMATCH = np.array([0, 1, 1, 0, 0], dtype=np.int32)  # 1 where P and S differ
_P_BIT = np.array([0, 0, 1, 1, 0], dtype=np.uint8)
_REFRESHED = np.array([0, 0, 3, 3, UNUSED], dtype=np.int8)  # the class once S := P


class LazySampler:
    """Per live session, counts[r, c] is how many unread positions are in class c,
    and the read set holds the fill[r] positions that decodes have read (pos, -1
    past the fill) with their classes (classes, UNUSED past the fill). Every op
    reads only the first used entries of the read set, the most any live row has
    filled; reads bounds the fill."""

    def __init__(self, size: int, m: int, reads: int) -> None:
        """The state of a chunk of size sessions; its first op, a store, fills the counts."""
        self.m = m
        self.counts = np.empty((size, 4), dtype=np.int64)
        self.pos = np.full((size, reads), -1, dtype=np.int64)
        self.classes = np.full((size, reads), UNUSED, dtype=np.int8)
        self.fill = np.empty(size, dtype=np.int64)
        self.used = 0

    def attack(self, schedule, step, message, code, draws) -> None:
        """Flip a uniform d-subset of the pool, every position or the fresh ones (P = 0,
        classes 0 and 1), as the schedule's flip rule (flips) says. The read positions
        in the pool go first, one after another: entry j flips where u_j * (pool
        positions left) < (flips left), so with probability (flips left)/(pool positions
        left), u_j drawn at slot READ_FLIP_SLOT + j (Knuth, TAOCP vol. 2, 3.4.2,
        Algorithm S). The flips left split over the unread classes of the pool by
        chained hypergeometric draws, class c's at slot HYPER_SLOT + c."""
        counts, classes = self.counts, self.classes[:, : self.used]
        d, fresh_only, _ = schedule.flips(step, self.m)
        if fresh_only:
            remaining = counts[:, 0] + counts[:, 1] + np.count_nonzero(classes < 2, axis=1)
            check_fresh(step, d, remaining)
        else:
            remaining = np.full(len(counts), self.m, dtype=np.int64)
        if not d:
            return
        pool = 2 if fresh_only else 4  # the pool's classes are [0, pool)
        left = np.full(len(counts), d, dtype=np.int64)
        if self.used:
            u = _uniform(draws.u64(READ_FLIP_SLOT + np.arange(self.used)))
            for j in range(self.used):
                eligible = classes[:, j] < pool
                hit = eligible & (u[:, j] * remaining < left)
                classes[hit, j] ^= 2
                left -= hit
                remaining -= eligible
        moved = np.zeros((len(counts), pool), dtype=np.int64)
        for c in range(pool - 1):
            if counts[:, c].any():
                moved[:, c] = hypergeometric(remaining, counts[:, c], left, _uniform(draws.u64(HYPER_SLOT + c)))
            remaining -= counts[:, c]
            left -= moved[:, c]
        moved[:, pool - 1] = left
        counts[:, :pool] -= moved
        counts[:, np.arange(pool) ^ 2] += moved  # a flip changes the P bit of its class

    def verify_distance(self) -> np.ndarray:
        return self.counts[:, 1] + self.counts[:, 2] + _MISMATCH[self.classes[:, : self.used]].sum(axis=1)

    def clean(self, rows: np.ndarray) -> np.ndarray:
        """Whether P is 0, for each of the live rows picked by the boolean mask rows."""
        return (self.counts[rows, 2:].sum(axis=1) == 0) & ~_P_BIT[self.classes[rows, : self.used]].any(axis=1)

    def keep(self, rows: np.ndarray) -> None:
        """Keep the live rows rows (ascending)."""
        self.counts, self.fill = self.counts[rows], self.fill[rows]
        self.pos, self.classes = self.pos[rows], self.classes[rows]

    def store(self) -> None:
        self.counts.fill(0)
        self.counts[:, 0] = self.m
        self.pos[:, : self.used] = -1
        self.classes[:, : self.used] = UNUSED
        self.fill.fill(0)
        self.used = 0

    def read(self, positions: np.ndarray, draws) -> np.ndarray:
        """The P bits at positions, a (rows, q) array, one query column at a time. A
        position in the read set has its class. Any other is unread, so it is equally
        likely to be each unread position: it takes a class drawn in proportion to the
        counts, at slot QUERY_SLOT + its column, and joins the read set."""
        rows = np.arange(len(positions))
        bits = np.empty(positions.shape, dtype=np.uint8)
        for col, want in enumerate(positions.T):
            at = self.fill.copy()
            if self.used:
                match = self.pos[:, : self.used] == want[:, None]
                at = np.where(match.any(axis=1), match.argmax(axis=1), at)
            new = np.flatnonzero(at == self.fill)
            if new.size:
                counts = self.counts[new]
                pick = (_uniform(draws.u64(QUERY_SLOT + col, new)) * counts.sum(axis=1)).astype(np.int64)
                cls = (pick[:, None] >= counts.cumsum(axis=1)).sum(axis=1)
                self.counts[new, cls] -= 1
                self.pos[new, at[new]] = want[new]
                self.classes[new, at[new]] = cls
                self.fill[new] += 1
                self.used = int(self.fill.max())
            bits[:, col] = _P_BIT[self.classes[rows, at]]
        return bits

    def refresh(self) -> None:
        self.counts[:, 0] += self.counts[:, 1]
        self.counts[:, 3] += self.counts[:, 2]
        self.counts[:, 1:3] = 0
        self.classes[:, : self.used] = _REFRESHED[self.classes[:, : self.used]]


def hypergeometric(total, good, count, u) -> np.ndarray:
    """Per row, the number of good items among count drawn without replacement
    from total, good of them good, at the uniform u in [0, 1): inversion with the
    values taken from the mode outward (mode, mode + 1, mode - 1, mode + 2, ...),
    each owning an interval of [0, 1) as long as its probability (Devroye,
    "Non-Uniform Random Variate Generation", 1986, III.2). That takes O(standard
    deviation) steps, and the order is fixed by the parameters, so each value has
    exactly its probability up to rounding. The mode's probability comes from
    lgamma, once per distinct argument, and each next one from its neighbour's by
    the ratio of the two. A row with a single possible value draws nothing."""
    total, good, count = (np.asarray(a, dtype=np.int64) for a in (total, good, count))
    u = np.asarray(u)
    lo, hi = np.maximum(0, count - (total - good)), np.minimum(count, good)
    x = lo.copy()
    rows = np.flatnonzero(lo < hi)
    if not rows.size:
        return x
    total, good, count, lo, hi = total[rows], good[rows], count[rows], lo[rows], hi[rows]
    mode = np.clip((count + 1) * (good + 1) // (total + 2), lo, hi)
    bad = total - good
    # log C(good, mode) + log C(bad, count - mode) - log C(total, count)
    args = np.stack([good, mode, good - mode, bad, count - mode, bad - count + mode, total, count, total - count])
    lg = _per_distinct(args + 1, math.lgamma)
    p = np.exp(lg[0] - lg[1] - lg[2] + lg[3] - lg[4] - lg[5] - lg[6] + lg[7] + lg[8])
    frac = good / total
    sd = np.sqrt(count * frac * (1 - frac) * (total - count) / (total - 1))
    width = int(HYPER_SIGMAS * sd.max()) + 8
    for block in row_blocks(rows.size, 16 * width):
        x[rows[block]] = _invert(
            total[block], good[block], count[block], u[rows[block]], mode[block], p[block], width,
        )
    return x


def _invert(total, good, count, u, mode, p, width: int) -> np.ndarray:
    """hypergeometric's search, width values up and width down at a time: the
    value whose interval holds u, where the mode owns [0, p). A u past the
    rounded total, which only rounding can leave, takes the mode."""
    x, top, bottom = mode.copy(), mode.copy(), mode.copy()
    p_top, p_bottom, reached = p.copy(), p.copy(), p.copy()
    rest = total - good - count
    steps = np.arange(width)
    pending = np.flatnonzero(u >= reached)
    while pending.size:
        g, c, r = good[pending, None], count[pending, None], rest[pending, None]
        up = top[pending, None] + steps  # p(v + 1) = p(v) (g - v)(c - v) / ((v + 1)(r + v + 1))
        up = p_top[pending, None] * np.cumprod((g - up) * (c - up) / ((up + 1) * (r + up + 1)), axis=1)
        down = bottom[pending, None] - steps  # p(v - 1) = p(v) v (r + v) / ((g - v + 1)(c - v + 1))
        down = p_bottom[pending, None] * np.cumprod(down * (r + down) / ((g - down + 1) * (c - down + 1)), axis=1)
        taken = np.empty((pending.size, 2 * width))
        taken[:, 0::2], taken[:, 1::2] = up, down
        ends = reached[pending, None] + np.cumsum(taken, axis=1)
        inside = u[pending, None] < ends
        first = inside.argmax(axis=1)
        found = inside[:, -1]
        value = np.where(first % 2 == 0, top[pending] + first // 2 + 1, bottom[pending] - first // 2 - 1)
        x[pending[found]] = value[found]
        reached[pending] = ends[:, -1]
        top[pending] += width
        bottom[pending] -= width
        p_top[pending], p_bottom[pending] = up[:, -1], down[:, -1]
        pending = pending[~found & ((up[:, -1] > 0) | (down[:, -1] > 0))]
    return x
