"""Closed-form detection bounds and their brute-force verification.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .fingerprint import Fingerprint, cswap_statevector_prob, swap_accept_prob

#: Absolute slack for float roundoff when comparing analytically equal quantities.
FLOAT_TOL = 1e-12

#: Most schedules verify_lemma2 will enumerate; larger grids fail fast instead of running for days.
MAX_LEMMA2_SCHEDULES = 10**7


@dataclass
class BoundReport:
    """Outcome of comparing an analytic value against a computed/estimated one.

    For Monte Carlo comparisons, empirical / samples / std_error describe the
    estimate (std_error = sqrt(p*(1-p)/N)) and tolerance is the acceptance
    band. Exhaustive checks set empirical to the worst observed margin and
    leave std_error None.
    """

    name: str
    analytic: dict[str, float]
    empirical: float | None = None
    samples: int = 0
    std_error: float | None = None
    tolerance: float = 0.0
    passed: bool = True
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "analytic": dict(self.analytic),
            "empirical": self.empirical,
            "samples": self.samples,
            "std_error": self.std_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "details": dict(self.details),
        }


def binomial_std_error(p_hat: float, n: int) -> float:
    """Standard error of an empirical rate: sqrt(p*(1-p)/n)."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    return float(np.sqrt(p_hat * (1.0 - p_hat) / n))


def p_single(delta_frac: float) -> float:
    """Accept probability of one comparison test against a fraction-delta_frac corruption.

    1 - 2*d + 2*d^2: equals (1 + ip^2)/2 at inner product ip = 1 - 2*d. Note
    d = 1 gives 1 again: a full complement is a global phase flip of the state
    and is invisible to the test.
    """
    if not 0.0 <= delta_frac <= 1.0:
        raise ValueError(f"flip fraction must be in [0, 1], got {delta_frac}")
    return 1.0 - 2.0 * delta_frac + 2.0 * delta_frac * delta_frac


def p_multi(deltas: Sequence[float]) -> float:
    """All-accept probability across disjoint steps: product of p_single terms.

    Empty input is the empty product, 1."""
    total = 0.0
    out = 1.0
    for d in deltas:
        if not 0.0 <= d <= 1.0:
            raise ValueError(f"flip fractions must be in [0, 1], got {d}")
        total += d
        out *= p_single(d)
    if total > 1.0 + 1e-9:
        raise ValueError(f"flip fractions must sum to <= 1, got {total}")
    return out


def lemma1_bound(delta: float, k: int) -> float:
    """Maximum all-accept probability of k tests against distance >= delta memory.

    (1 - 2*delta + 2*delta^2)^k, i.e. p_single(delta)^k: the per-test accept
    probability at the distance-saturating inner product, k times.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    return p_single(delta) ** k


def _direct_t2_gap(d1: float, total: float) -> float:
    """Ground truth for the T=2 gap: p_single(total) - p_single(d1)*p_single(total-d1)."""
    return p_single(total) - p_single(d1) * p_single(total - d1)


def rederived_t2_identity(d1: float, total: float) -> float:
    """Re-derived closed form of the T=2 gap: 4*D1*D2*(D - D1*D2) with D2 = D - D1."""
    d2 = total - d1
    return 4.0 * d1 * d2 * (total - d1 * d2)


def printed_t2_identity_variant(d1: float, total: float) -> float:
    """The same expression with the inner sign flipped to "+"; kept to measure
    its disagreement with direct subtraction."""
    d2 = total - d1
    return 4.0 * d1 * d2 * (total + d1 * d2)


def _compositions(grid: int, t_max: int) -> Iterator[tuple[int, ...]]:
    """All tuples (g_1..g_T), 1 <= T <= t_max, g_i >= 0 integers, sum <= grid."""

    def extend(prefix: tuple[int, ...], remaining: int) -> Iterator[tuple[int, ...]]:
        for g in range(remaining + 1):
            tup = prefix + (g,)
            yield tup
            if len(tup) < t_max:
                yield from extend(tup, remaining - g)

    yield from extend((), grid)


def verify_lemma2(grid: int = 20, t_max: int = 4, tolerance: float = FLOAT_TOL) -> BoundReport:
    """Exhaustively check single-step dominance on a grid, plus the T=2 identity.

    Enumerates every split of every total Delta on the grid {0, 1/grid, ...}
    into at most t_max parts and asserts p_multi(parts) <= p_single(sum)
    within float tolerance. Also scans the T=2 identity on a finer grid:
    the re-derived closed form must match direct subtraction to tolerance,
    while the sign-flipped variant's worst disagreement is reported so any
    mismatch is visible rather than silently trusted.
    """
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    if t_max < 2:
        raise ValueError(f"t_max must be >= 2, got {t_max}")
    # T-part splits of a total <= grid: C(grid + T, T), by stars and bars
    schedules = 0
    for t in range(1, t_max + 1):
        schedules += math.comb(grid + t, t)
        if schedules > MAX_LEMMA2_SCHEDULES:
            raise ValueError(
                f"grid {grid} with t_max {t_max} means more than the cap of "
                f"{MAX_LEMMA2_SCHEDULES} schedules to enumerate"
            )

    violations = 0
    worst_margin = -np.inf  # max of p_multi - p_single(sum); <= 0 means the bound holds
    checked = 0
    for parts in _compositions(grid, t_max):
        deltas = [g / grid for g in parts]
        margin = p_multi(deltas) - p_single(sum(parts) / grid)
        worst_margin = max(worst_margin, margin)
        if margin > tolerance:
            violations += 1
        checked += 1

    # T=2 identity scan on a finer grid.
    fine = 100
    rederived_dev = 0.0
    variant_dev = 0.0
    for total_i in range(fine + 1):
        total = total_i / fine
        for d1_i in range(total_i + 1):
            d1 = d1_i / fine
            direct = _direct_t2_gap(d1, total)
            rederived_dev = max(rederived_dev, abs(direct - rederived_t2_identity(d1, total)))
            variant_dev = max(variant_dev, abs(direct - printed_t2_identity_variant(d1, total)))

    identity_ok = rederived_dev <= tolerance
    return BoundReport(
        name="single_step_dominance",
        analytic={"max_margin": float(worst_margin)},
        empirical=float(worst_margin),
        samples=checked,
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

    Draws random phase-pattern pairs at each size and compares
    swap_accept_prob with cswap_statevector_prob; reports the worst absolute
    deviation observed. Empty sizes and a tolerance that is not a finite
    number >= 0 are rejected: either would make the check vacuous or false.
    """
    if not sizes:
        raise ValueError("sizes must name at least one codeword length")
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    count = 0
    for m in sizes:
        for _ in range(pairs_per_size):
            a = Fingerprint(rng.integers(0, 2, size=m, dtype=np.uint8))
            b = Fingerprint(rng.integers(0, 2, size=m, dtype=np.uint8))
            dev = abs(cswap_statevector_prob(a, b) - swap_accept_prob(a, b))
            worst = max(worst, dev)
            count += 1
    return BoundReport(
        name="swap_oracle_equivalence",
        analytic={"max_allowed_dev": tolerance},
        empirical=worst,
        samples=count,
        std_error=None,
        tolerance=tolerance,
        passed=worst <= tolerance,
        details={"sizes": list(sizes), "pairs_per_size": pairs_per_size, "seed": seed},
    )
