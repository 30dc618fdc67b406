"""Closed-form detection bounds and their brute-force verification.

The closed forms a run reads live here too: required_k, the k of a config's
k "auto", and stated_complexity, the cost s = k*ceil(log2 m) and
t = 2k*ceil(log2 m) + q that every run reports (ComplexityReport).

Two facts about the protocol are verified here at desk scale:

* detection bound (lemma1_bound): against memory at relative distance
  >= delta, k comparison tests all accept with probability at most
  (1 - 2*delta + 2*delta^2)^k, which drops below any epsilon once
  k >= log(epsilon) / log(1 - 2*delta + 2*delta^2).

* single-step dominance (verify_lemma2): splitting a flip budget Delta
  across T disjoint steps never helps the adversary; the all-accept probability
  P_T(D_1..D_T) = prod_i p_single(D_i) is maximized by the one-shot attack,
  P_T <= p_single(sum D_i). verify_lemma2 checks this exhaustively on a grid,
  and also re-derives the T=2 difference identity: direct expansion gives

      p_single(D) - p_single(D1) * p_single(D - D1)
          = 4 * D1 * (D - D1) * (D - D1*(D - D1))

  Direct subtraction is the ground truth; the report additionally evaluates a
  variant of the identity with the last sign flipped to "+" (a form this
  check exists to guard against) and flags its disagreement.

Both checks are array computations, on blocks of rows under the package's
one memory rule, engine.row_blocks. verify_lemma2 tabulates p_single on the
grid once; a schedule's child is (parent sum + g, parent product *
p_single(g/grid)), p_multi's left-to-right product, so every margin is the
double p_multi would give. IEEE round-to-nearest multiply and subtract are
monotone, so a child's margin never falls as its parent's product grows:
each level's largest margin, and each sum's largest product, is a child of
some sum's largest product. So verify_lemma2 builds, level by level, only
the children of each sum's largest product, at most (grid + 1)(grid + 2)/2
a level. Only if the largest margin exceeds the tolerance does it also
enumerate every schedule, depth first, to count the violations exactly.
Both run in blocks of children at 64 bytes each, 4,096 to a block unless
one parent has more, so memory does not grow with the schedule count. On a
2-core Xeon, a passing check at the cap of MAX_LEMMA2_SCHEDULES takes under
4 ms at t_max 3 and up, and about 0.1-0.2 s at t_max 2 (grid 4,400), where
every sum of one part is its own parent; the enumeration adds 0.05-0.2 s.

verify_swap_oracle draws each block of pairs with one Generator call and
runs the controlled-SWAP circuit on the block (cswap_statevector_probs),
comparing each pair with p_single(d/m) at its Hamming distance; it is capped
at MAX_ORACLE_PAIRS pairs. A pair takes 16*m*m bytes, the circuit's two live
float64 (m, m) arrays of its accept branch, the only part of the statevector
it builds, so each array of a block holds at most 2^14 entries. numpy's
uint8 draws give the same bytes however a size's rows are split into calls,
as long as every call but the last draws a multiple of 4 bytes. Each full block draws
2*m*pairs bytes, a multiple of 4 while CHUNK_BYTES is a multiple of 32, so
the pairs and the report do not depend on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .code import LocallyDecodableCode
from .engine import row_blocks

# p_single lives with the comparison test's law and its oracle; it is re-exported here
from .fingerprint import check_oracle_size, cswap_statevector_probs, p_accept, p_single

#: Absolute slack for float roundoff when comparing analytically equal quantities.
FLOAT_TOL = 1e-12

#: Most schedules verify_lemma2 will enumerate; larger grids fail fast instead of running for days.
MAX_LEMMA2_SCHEDULES = 10**7

#: Most pairs verify_swap_oracle will simulate, over all sizes; more fail fast instead of running for hours.
MAX_ORACLE_PAIRS = 10**6


@dataclass
class BoundReport:
    """Outcome of comparing an analytic value against a computed/estimated one.

    For Monte Carlo comparisons, empirical / samples / std_error describe the
    estimate (std_error = sqrt(p*(1-p)/N)) and tolerance is the acceptance
    band. Exhaustive checks set empirical to the worst observed margin and
    std_error to None. Every field is required, so no check passes by
    leaving out its verdict.
    """

    name: str
    analytic: dict[str, float]
    empirical: float | None
    samples: int
    std_error: float | None
    tolerance: float
    passed: bool
    details: dict

    def to_dict(self) -> dict:
        """The fields as a dict, analytic and details copied one level deep: the
        document a recursive deep copy gives, at a fraction of its cost."""
        return {**vars(self), "analytic": dict(self.analytic), "details": dict(self.details)}


def binomial_std_error(p_hat: float, n: int) -> float:
    """Standard error of an empirical rate: sqrt(p*(1-p)/n)."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    return float(np.sqrt(p_hat * (1.0 - p_hat) / n))


def binomial_tail(count: int, samples: int, p: float, stop: float = math.inf) -> float:
    """For X ~ Bin(samples, p), 0 < p < 1: P(X >= count) if count is at least
    the mean samples*p, else P(X <= count). Terms shrink walking away from the
    mean; they are summed in log space until negligible, or until the sum
    reaches stop (then that partial sum is returned)."""
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0, 1), got {p}")
    step = 1 if count >= samples * p else -1
    head = math.lgamma(samples + 1)
    log_p, log_q = math.log(p), math.log1p(-p)
    total = 0.0
    for j in range(count, samples + 1 if step > 0 else -1, step):
        log_choose = head - math.lgamma(j + 1) - math.lgamma(samples - j + 1)
        term = math.exp(log_choose + j * log_p + (samples - j) * log_q)
        total += term
        if total >= stop or term <= total * 1e-17:
            break
    return total


def p_multi(deltas: Sequence[float]) -> float:
    """All-accept probability across disjoint steps: product of p_single terms.

    Empty input is the empty product, 1. A fraction outside [0, 1] raises in
    p_single."""
    total = 0.0
    out = 1.0
    for d in deltas:
        total += d
        out *= p_single(d)
    if total > 1.0 + 1e-9:
        raise ValueError(f"flip fractions must sum to <= 1, got {total}")
    return out


def lemma1_bound(delta: float, k: int) -> float:
    """Maximum all-accept probability of k tests against distance >= delta memory.

    (1 - 2*delta + 2*delta^2)^k, i.e. p_accept(delta, k): the per-test accept
    probability at the distance-saturating inner product, k times.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    return p_accept(delta, k)


def required_k(epsilon: float, delta: float) -> int:
    """Copies needed to push the all-accept probability below epsilon.

    A single comparison against memory at relative distance >= delta accepts
    with probability at most lemma1_bound(delta, 1) = p_single(delta) =
    1 - 2*delta + 2*delta^2, so k = ceil(log(epsilon) / log(p_single(delta)))
    suffices. lemma1_bound also checks delta.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must be in (0, 1/2), got {epsilon}")
    base = lemma1_bound(delta, 1)
    if base >= 1.0:
        # delta == 1: a full complement is a global phase flip, invisible to the
        # comparison test; no finite k reaches the target error rate.
        raise ValueError(f"no finite k for delta={delta}: per-test accept probability is 1")
    ratio = math.log(epsilon) / math.log(base)
    # Nudge guards against float noise at exact-integer ratios; the true k is
    # any integer >= ratio, so rounding a hair down is always safe.
    return max(1, math.ceil(ratio - 1e-12))


@dataclass(frozen=True)
class ComplexityReport:
    """Resource usage, stated or metered: private qubits held and qubits served per retrieve."""

    s_qubits: int
    t_qubits_per_retrieve: int

    def __post_init__(self) -> None:
        if self.s_qubits < 0 or self.t_qubits_per_retrieve < 0:
            raise ValueError("complexity figures must be nonnegative")


def qubits_per_summary(m: int) -> int:
    """Qubits in one fingerprint of an m-bit word: ceil(log2 m)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return (m - 1).bit_length()


def stated_complexity(code: LocallyDecodableCode, k: int) -> ComplexityReport:
    """The protocol's cost: s = k * ceil(log2 m) private qubits, and per retrieve
    t = 2k * ceil(log2 m) + q, for its k test summaries, its k refresh summaries
    and the decode's q reads. checker.complexity_report meters the same figures
    on a session."""
    per_summary = qubits_per_summary(code.params.m)
    return ComplexityReport(k * per_summary, 2 * k * per_summary + code.params.q)


def rederived_t2_identity(d1: float, total: float) -> float:
    """Re-derived closed form of the T=2 gap: 4*D1*D2*(D - D1*D2) with D2 = D - D1."""
    d2 = total - d1
    return 4.0 * d1 * d2 * (total - d1 * d2)


def printed_t2_identity_variant(d1: float, total: float) -> float:
    """The same expression with the inner sign flipped to "+"; kept to measure
    its disagreement with direct subtraction."""
    d2 = total - d1
    return 4.0 * d1 * d2 * (total + d1 * d2)


def _child_blocks(
    sums: np.ndarray, prods: np.ndarray, table: np.ndarray, cap: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The children (s + g, x * table[g]), g in [0, grid - s], of each parent (s, x), in order.

    They come in blocks of whole parents: as many as have all their children
    in cap, and at least one. x * table[g] is p_multi's left-to-right
    product, so each child's product is the double p_multi gives.
    """
    children = table.size - sums
    ends = np.cumsum(children)
    start = 0
    while start < sums.size:
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + cap, side="right")))
        block = slice(start, stop)
        counts = children[block]
        parent = np.repeat(np.arange(stop - start), counts)
        g = np.arange(base, int(ends[stop - 1])) - (ends[block] - counts)[parent]
        yield sums[block][parent] + g, prods[block][parent] * table[g]
        start = stop


def _schedule_margins(table: np.ndarray, t_max: int, cap: int) -> Iterator[np.ndarray]:
    """Blocks of p_multi(parts) - p_single(sum(parts)) over every schedule on the grid.

    A schedule is (g_1..g_j), 1 <= j <= t_max, of integers g_i >= 0 with sum
    <= grid, standing for the flip fractions g_i / grid; table[g] is
    p_single(g / grid). Each level's schedules are the children of the
    level before, built depth first in _child_blocks' blocks, so memory is
    O(t_max * block) whatever the schedule count.
    """
    stack = [(1, _child_blocks(np.zeros(1, dtype=np.int64), np.ones(1), table, cap))]
    while stack:
        length, blocks = stack[-1]
        block = next(blocks, None)
        if block is None:
            stack.pop()
            continue
        sums, prods = block
        yield prods - table[sums]
        if length < t_max:
            stack.append((length + 1, _child_blocks(sums, prods, table, cap)))


def _max_margin(table: np.ndarray, t_max: int, cap: int) -> float:
    """The largest of _schedule_margins' margins, from each level's largest product per sum.

    A child's margin fl(fl(x * table[g]) - table[s + g]) never decreases as
    its parent's product x grows, since IEEE round-to-nearest multiply (by
    table[g] > 0) and subtract are monotone; nor does its product
    fl(x * table[g]). So among the children with parent sum s and step g,
    the child of sum s's largest product has the largest margin and the
    largest product. Each level is then the children of at most grid + 1
    parents, one per sum: the previous level's largest product of each sum.
    """
    top = np.full(table.size, -np.inf)
    top[0] = 1.0  # the empty schedule
    worst = -np.inf
    for length in range(1, t_max + 1):
        sums = np.flatnonzero(top > -np.inf)
        prods, top = top[sums], np.full(table.size, -np.inf)
        for child_sums, child_prods in _child_blocks(sums, prods, table, cap):
            worst = max(worst, (child_prods - table[child_sums]).max())
            if length < t_max:
                np.maximum.at(top, child_sums, child_prods)
    return worst


def verify_lemma2(grid: int = 20, t_max: int = 4, tolerance: float = FLOAT_TOL) -> BoundReport:
    """Exhaustively check single-step dominance on a grid, plus the T=2 identity.

    Checks every split of every total Delta on the grid {0, 1/grid, ...}
    into at most t_max parts for p_multi(parts) <= p_single(sum) within
    float tolerance. The largest margin comes from _max_margin; only when
    it exceeds the tolerance are the schedules enumerated, to count the
    violations. Also scans the T=2 identity on a finer grid: the re-derived
    closed form must match direct subtraction to tolerance, while the
    sign-flipped variant's worst disagreement is reported so any mismatch
    is visible rather than silently trusted. A tolerance that is not a
    finite number raises ValueError before anything is counted.
    """
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    if t_max < 2:
        raise ValueError(f"t_max must be >= 2, got {t_max}")
    if not math.isfinite(tolerance):
        raise ValueError(f"tolerance must be a finite number, got {tolerance}")
    # T-part splits of a total <= grid: C(grid + T, T), by stars and bars
    schedules = 0
    for t in range(1, t_max + 1):
        schedules += math.comb(grid + t, t)
        if schedules > MAX_LEMMA2_SCHEDULES:
            raise ValueError(
                f"grid {grid} with t_max {t_max} means more than the cap of "
                f"{MAX_LEMMA2_SCHEDULES} schedules to enumerate"
            )

    table = p_single(np.arange(grid + 1) / grid)
    # children per block, at 64 bytes each: room for eight int64 or float64 arrays over them
    cap = next(row_blocks(MAX_LEMMA2_SCHEDULES, 64)).stop
    worst_margin = _max_margin(table, t_max, cap)  # <= 0 means the bound holds
    violations = 0
    if worst_margin > tolerance:
        for margins in _schedule_margins(table, t_max, cap):
            violations += int(np.count_nonzero(margins > tolerance))

    # T=2 identity scan on a finer grid: every (d1, total) with d1 <= total.
    fine = 100
    total_i, d1_i = np.tril_indices(fine + 1)
    total, d1 = total_i / fine, d1_i / fine
    direct = p_single(total) - p_single(d1) * p_single(total - d1)
    rederived_dev = float(np.abs(direct - rederived_t2_identity(d1, total)).max())
    variant_dev = float(np.abs(direct - printed_t2_identity_variant(d1, total)).max())

    identity_ok = rederived_dev <= tolerance
    return BoundReport(
        name="single_step_dominance",
        analytic={"max_margin": float(worst_margin)},
        empirical=float(worst_margin),
        samples=schedules,
        std_error=None,
        tolerance=tolerance,
        passed=violations == 0 and identity_ok,
        details={
            "grid": grid,
            "t_max": t_max,
            "violations": violations,
            "t2_identity_max_dev": rederived_dev,
            "t2_identity_consistent": identity_ok,
            "t2_variant_max_dev": variant_dev,
            "t2_variant_consistent": variant_dev <= tolerance,
        },
    )


def verify_swap_oracle(
    sizes: Sequence[int] = (2, 4, 8, 16, 32),
    pairs_per_size: int = 200,
    seed: int = 0,
    tolerance: float = 1e-10,
) -> BoundReport:
    """Cross-validate the analytic accept probability against the dense circuit.

    Draws random phase-pattern pairs at each size, one (2 * pairs, m) array
    of rows per block of pairs (a then b for each pair) from one Generator,
    and compares p_single(d/m) at each pair's Hamming distance d
    (checker.swap_accept_prob's formula, the one every bound uses) with
    cswap_statevector_probs, which runs the block at once; reports the worst
    absolute deviation observed. Before any draw it rejects empty
    sizes, a size the oracle cannot run, fewer than one pair per size, more
    than MAX_ORACLE_PAIRS pairs in all and a tolerance that is not a finite
    number >= 0: each would make the check vacuous, false or fail late.
    """
    if not sizes:
        raise ValueError("sizes must name at least one codeword length")
    for m in sizes:
        check_oracle_size(m)
    if pairs_per_size < 1:
        raise ValueError(f"pairs_per_size must be >= 1, got {pairs_per_size}")
    if len(sizes) * pairs_per_size > MAX_ORACLE_PAIRS:
        raise ValueError(
            f"{len(sizes)} sizes with {pairs_per_size} pairs each means more than the cap of "
            f"{MAX_ORACLE_PAIRS} pairs to simulate"
        )
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for m in sizes:
        exact = p_single(np.arange(m + 1) / m)
        # per pair: the circuit's two live float64 (m, m) arrays
        for block in row_blocks(pairs_per_size, 16 * m * m):
            pairs = block.stop - block.start
            rows = rng.integers(0, 2, size=(2 * pairs, m), dtype=np.uint8)  # a then b for each pair
            a, b = rows[0::2], rows[1::2]
            dev = np.abs(cswap_statevector_probs(a, b) - exact[np.count_nonzero(a != b, axis=1)])
            worst = max(worst, float(dev.max()))
    return BoundReport(
        name="swap_oracle_equivalence",
        analytic={"max_allowed_dev": tolerance},
        empirical=worst,
        samples=len(sizes) * pairs_per_size,
        std_error=None,
        tolerance=tolerance,
        passed=worst <= tolerance,
        details={"sizes": list(sizes), "pairs_per_size": pairs_per_size, "seed": seed},
    )
