"""Every schedule's apply against the exact law of its step.

Each shape runs its schedule step by step on ROWS stored messages, with one
packed corruption pattern (memory xor stored codeword) per session as the
engine keeps them, and with the draws keyed from a seeded Generator; the
checks read the memories, pattern xor codeword, unpacked. After each step:

- every row's distance from its pre-step memory lies in the support of
  step_distances, hits a one-point law exactly, and matches a two-point law's
  weights within 4 sigma or on the exact binomial tail;
- incremental flips land only on fresh positions, and each row's distance to
  the baseline is the running flip total;
- prefix policies flip exactly the lowest candidate positions, and uniform
  policies flip each candidate equally often (Pearson's chi-square);
- a random substitute target is a codeword other than the stored one, uniform
  over the 2^n - 1 others.

The shapes are the attacked golden configs at n <= 8 plus edge shapes:
flip_count with bits_per_step >= m, a trailing zero incremental step on
drained rows, and a fixed substitute target against a random message.
"""

import math

import numpy as np
import pytest

from qmemcheck import harness
from qmemcheck.adversary import FlipCount, IncrementalAttack, SubstituteCodeword
from qmemcheck.analysis import binomial_tail
from qmemcheck.bits import as_bits, unpack_rows
from qmemcheck.code import HadamardCode
from qmemcheck.engine import OpDraws
from qmemcheck.harness import ExperimentConfig
from test_golden import CONFIGS

ROWS = 4000


def golden_shape(name):
    config = ExperimentConfig.from_dict(CONFIGS[name])
    steps = sum(op.op == "attack" for op in config.build_script())
    return config.attack, config.n, config.message, steps


# the attacked goldens at n <= 8: one step of a lazy golden's (n = 15) would unpack ROWS rows of
# 2^15 positions, 131 MB an array, to run the same apply
SHAPES = {name: shape for name in sorted(CONFIGS) if (shape := golden_shape(name))[3] and shape[1] <= 8}
SHAPES.update({
    "flipcount-uniform-all-n5": (FlipCount(40), 5, "random", 2),
    "flipcount-prefix-all-n3": (FlipCount(9, policy="prefix"), 3, "010", 2),
    "incremental-uniform-drained-n2": (IncrementalAttack((1.0, 0.0)), 2, "random", 2),
    "incremental-prefix-drained-n2": (IncrementalAttack((1.0, 0.0), policy="prefix"), 2, "random", 2),
    "incremental-uniform-drained-n3": (IncrementalAttack((0.5, 0.5, 0.0)), 3, "random", 3),
    "substitute-fixed-target-random-message-n4": (SubstituteCodeword("1010"), 4, "random", 1),
})


def flipping(kind, policy):
    return sorted(
        name for name, (schedule, *_) in SHAPES.items()
        if isinstance(schedule, kind) and schedule.policy == policy
    )


def run_steps(shape, seed=0):
    """Yield (schedule, code, message, step, baseline, before, after) for each
    step of a (schedule, n, message, steps) shape, on ROWS stored messages;
    apply runs on packed patterns given those messages, and the stored
    codewords and the memories before and after the step are yielded unpacked."""
    schedule, n, message, steps = shape
    rng = np.random.default_rng(seed)
    code = HadamardCode(n)
    if message == "random":
        messages = rng.integers(0, 2, size=(ROWS, n), dtype=np.uint8)
    else:
        messages = np.tile(as_bits(message), (ROWS, 1))
    baseline = code.encode_batch(messages)
    patterns = np.zeros_like(baseline)
    m = code.params.m
    for step in range(steps):
        before = unpack_rows(patterns ^ baseline, m)
        schedule.apply(step, patterns, messages, code, OpDraws(rng.integers(2**64, size=ROWS, dtype=np.uint64)))
        yield schedule, code, message, step, unpack_rows(baseline, m), before, unpack_rows(patterns ^ baseline, m)


def within_law(count: int, samples: int, p: float) -> bool:
    """count of samples against an exact rate p: inside 4 sigma, or on an
    exact binomial tail of at least Phi(-4), as harness._rate_check decides."""
    if p in (0.0, 1.0):
        return count == samples * p
    sigma = math.sqrt(p * (1 - p) / samples)
    if abs(count / samples - p) <= 4 * sigma:
        return True
    return binomial_tail(count, samples, p, stop=harness.TAIL_ALPHA) >= harness.TAIL_ALPHA


def chi2_passes(observed: np.ndarray, expected: np.ndarray) -> bool:
    """Pearson's statistic at most the upper Phi(-4) quantile of chi-square with
    len - 1 degrees of freedom (Wilson-Hilferty). Sampling d of f candidates
    per row without replacement makes the statistic at most that law."""
    stat = float(((observed - expected) ** 2 / expected).sum())
    df = observed.size - 1
    quantile = df * (1 - 2 / (9 * df) + 4 * math.sqrt(2 / (9 * df))) ** 3
    return stat <= quantile


def candidates(schedule, step, before, baseline):
    """The positions a step may flip: all of them, or the fresh ones, as its flip rule says."""
    if schedule.flips(step, before.shape[1])[1]:
        return before == baseline
    return np.ones(before.shape, dtype=bool)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_distances_follow_step_law(name):
    for schedule, code, message, step, _, before, after in run_steps(SHAPES[name]):
        law = schedule.step_distances(code, message, step)
        distances = np.count_nonzero(after != before, axis=1)
        values, counts = np.unique(distances, return_counts=True)
        assert set(values.tolist()) <= set(law), f"step {step}: {dict(zip(values, counts))} outside {law}"
        for distance, weight in law.items():
            count = int(counts[values == distance].sum())
            assert within_law(count, ROWS, weight), f"step {step}: {count} of {ROWS} at {distance}, law {law}"


@pytest.mark.parametrize("name", flipping(IncrementalAttack, "uniform") + flipping(IncrementalAttack, "prefix"))
def test_incremental_flips_fresh_positions_only(name):
    total = 0
    for schedule, code, _, step, baseline, before, after in run_steps(SHAPES[name]):
        flipped = after != before
        assert not (flipped & (before != baseline)).any()
        total += schedule.flips(step, code.params.m)[0]
        assert (np.count_nonzero(after != baseline, axis=1) == total).all()


@pytest.mark.parametrize("name", flipping(FlipCount, "prefix") + flipping(IncrementalAttack, "prefix"))
def test_prefix_flips_lowest_positions(name):
    for schedule, code, _, step, baseline, before, after in run_steps(SHAPES[name]):
        allowed = candidates(schedule, step, before, baseline)
        lowest = allowed & (np.cumsum(allowed, axis=1) <= schedule.flips(step, code.params.m)[0])
        assert np.array_equal(after != before, lowest)


@pytest.mark.parametrize("name", flipping(FlipCount, "uniform") + flipping(IncrementalAttack, "uniform"))
def test_uniform_flips_spread_evenly(name):
    for schedule, code, _, step, baseline, before, after in run_steps(SHAPES[name]):
        allowed = candidates(schedule, step, before, baseline)
        d = schedule.flips(step, code.params.m)[0]
        fresh = allowed.sum(axis=1, keepdims=True)
        # each row flips each of its f candidates with probability d / f
        expected = (allowed * np.divide(d, fresh, out=np.zeros(fresh.shape), where=fresh > 0)).sum(axis=0)
        observed = (after != before).sum(axis=0)
        if not d or (fresh == d).all():  # nothing to choose: every candidate or none flips
            assert np.array_equal(observed, expected)
            continue
        assert observed[expected == 0].sum() == 0
        assert chi2_passes(observed[expected > 0], expected[expected > 0]), f"step {step}"


@pytest.mark.parametrize("message", ["random", "0110"])
def test_random_target_is_uniform_over_other_codewords(message):
    [(_, code, _, _, baseline, _, after)] = run_steps((SubstituteCodeword(), 4, message, 1))
    n = code.params.n
    # position 2^(n-1-i) of a Hadamard codeword holds message bit i
    unit = 1 << np.arange(n - 1, -1, -1)
    target, stored = after[:, unit], baseline[:, unit]
    assert np.array_equal(unpack_rows(code.encode_batch(target), code.params.m), after)  # each row holds a codeword
    offsets = (target ^ stored) @ unit  # which other message: never 0, uniform over the rest
    counts = np.bincount(offsets, minlength=1 << n)
    assert counts[0] == 0
    assert chi2_passes(counts[1:], np.full((1 << n) - 1, ROWS / ((1 << n) - 1)))
