"""The deferred-decision sampler (lazy.LazySampler) against exact laws and the dense sampler.

A test forces a sampler by setting engine.LAZY_MIN_M: at LAZY every config whose
schedule states a lazy form runs lazily, and at DENSE every config runs dense.
The exact laws are those of one uniform step: d flips of m positions put
distance d between the memory and its snapshot, accepted with probability
p_single(d/m)^k, and a 2-query decode is wrong where exactly one of its pair of
positions flipped, with probability 2d(m - d)/(m(m - 1)).
"""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from qmemcheck import engine, lazy
from qmemcheck.adversary import FlipCount, IncrementalAttack, ScheduleError
from qmemcheck.fingerprint import p_single
from qmemcheck.harness import ExperimentConfig, run_experiment
from test_engine import ENGINE_CONFIGS, recorded_chunks, same_rate
from test_golden import CONFIGS as GOLDEN_CONFIGS

LAZY, DENSE = 1, 2**62


def force(monkeypatch, min_m: int) -> None:
    monkeypatch.setattr(engine, "LAZY_MIN_M", min_m)


def lazy_reads(config) -> int | None:
    return engine._lazy_reads(config, engine._draw_plan(config))


def within(count: int, samples: int, exact: float) -> bool:
    """count of samples lies within 4 sigma of the exact rate."""
    return abs(count / samples - exact) <= 4 * math.sqrt(exact * (1 - exact) / samples)


def hypergeometric_pmf(total: int, good: int, count: int, x: int) -> float:
    return math.comb(good, x) * math.comb(total - good, count - x) / math.comb(total, count)


class TestHypergeometric:
    @pytest.mark.parametrize("sigmas", [lazy.HYPER_SIGMAS, 0])  # 0: windows of 8 values, so many rows take several
    @pytest.mark.parametrize(
        "total, good, count",
        [
            (1, 1, 1), (2, 1, 1), (10, 4, 5), (20, 7, 9), (30, 15, 15), (50, 3, 40), (60, 45, 20), (200, 100, 100),
            # a single possible value: no good items, all good, none drawn, all drawn
            (10, 0, 5), (10, 10, 5), (10, 4, 0), (10, 4, 10),
        ],
    )
    def test_evenly_spaced_uniforms_give_the_exact_law(self, total, good, count, sigmas, monkeypatch):
        # inversion gives each value an interval as long as its probability, so M evenly
        # spaced points land in it M * pmf times, give or take one
        monkeypatch.setattr(lazy, "HYPER_SIGMAS", sigmas)
        points = 20_000
        u = (np.arange(points) + 0.5) / points
        x = lazy.hypergeometric(np.full(points, total), np.full(points, good), np.full(points, count), u)
        seen = np.bincount(x, minlength=count + 1)
        assert seen.size == count + 1
        for value in range(count + 1):
            assert abs(seen[value] - points * hypergeometric_pmf(total, good, count, value)) <= 1, value

    def test_each_row_inverts_its_own_law(self):
        # one call over rows of different laws gives each row what a call on it alone gives
        rng = np.random.default_rng(3)
        total = rng.integers(2, 300, size=400)
        good, count = rng.integers(0, total + 1), rng.integers(0, total + 1)
        u = rng.random(400)
        together = lazy.hypergeometric(total, good, count, u)
        alone = [lazy.hypergeometric(*(a[i : i + 1] for a in (total, good, count, u)))[0] for i in range(400)]
        assert together.tolist() == alone
        assert ((np.maximum(0, count - (total - good)) <= together) & (together <= np.minimum(count, good))).all()

    def test_moments_at_a_large_population(self):
        # m = 2^20 with item 1's worst-case flip count: evenly spaced points give the exact mean and variance
        total, good, count, points = 2**20, 75_497, 75_497, 40_000
        u = (np.arange(points) + 0.5) / points
        x = lazy.hypergeometric(np.full(points, total), np.full(points, good), np.full(points, count), u)
        mean = count * good / total
        var = mean * (total - good) / total * (total - count) / (total - 1)
        assert abs(x.mean() - mean) < 0.01 * math.sqrt(var)
        assert abs(x.var() / var - 1) < 0.01


def test_read_set_keeps_the_joint_law_of_two_decodes(monkeypatch):
    # m = 8, k = 1: two uniform flips, then two retrieves of bit 0. A retrieve is wrong where
    # exactly one position of its mask's pair {a, a ^ e_0} flipped: 12 of the 28 flip pairs,
    # so 3/7. Both are wrong only where the flips sit in two different pairs (24 of 28), and
    # then each retrieve hits one of those two pairs with probability 1/2: 6/7 * 1/4 = 3/14,
    # where two independent decodes would give 9/49
    force(monkeypatch, LAZY)
    config = ExperimentConfig.from_dict({
        "n": 3, "k": 1, "message": "000", "attack": {"kind": "flip_count", "bits_per_step": 2},
        "script": [{"op": "store"}, {"op": "attack"}, {"op": "retrieve", "index": 0}, {"op": "retrieve", "index": 0}],
        "record_trials": True, "trials": 40_000, "seed": 7,
    })
    assert lazy_reads(config) == 4
    codes = engine.run_sessions(config, range(config.trials)).codes
    answered = codes[:, 3] >= 0  # the second retrieve follows a refresh with no attack, so it never rejects
    first, second = codes[answered, 2] == 1, codes[answered, 3] == 1  # the stored bit is 0
    samples = int(np.count_nonzero(answered))
    assert within(samples, config.trials, p_single(2 / 8))
    assert within(int(np.count_nonzero(first)), samples, 3 / 7)
    assert within(int(np.count_nonzero(second)), samples, 3 / 7)
    assert within(int(np.count_nonzero(first & second)), samples, 3 / 14)
    assert not within(int(np.count_nonzero(first & second)), samples, 9 / 49)


# (first wrong, second wrong) = (0, 0), (0, 1), (1, 0), (1, 1) for a step before each of two decodes of
# bit 0 at m = 8, enumerated over both steps' flips and both masks
STEP_BETWEEN_DECODES = {
    "flip_count": ({"kind": "flip_count", "bits_per_step": 2}, (29 / 98, 27 / 98, 3 / 14, 3 / 14)),
    "incremental": ({"kind": "incremental", "deltas": [0.25, 0.25]}, (9 / 35, 11 / 35, 6 / 35, 9 / 35)),
}


@pytest.mark.parametrize("min_m", [LAZY, DENSE], ids=["lazy", "dense"])
@pytest.mark.parametrize("attack", sorted(STEP_BETWEEN_DECODES))
def test_a_step_between_decodes_keeps_their_joint_law(attack, min_m, monkeypatch):
    # k = 1: store, attack, retrieve, attack, retrieve. The second step may flip the positions the
    # first decode read. Both verifications sit at distance 2, so given that both retrieves were
    # reached, the answers have the enumerated joint law
    force(monkeypatch, min_m)
    schedule, exact = STEP_BETWEEN_DECODES[attack]
    ops = ["store", "attack", "retrieve", "attack", "retrieve"]
    config = ExperimentConfig.from_dict({
        "n": 3, "k": 1, "message": "000", "attack": schedule,
        "script": [{"op": op} if op != "retrieve" else {"op": op, "index": 0} for op in ops],
        "record_trials": True, "trials": 60_000, "seed": 14,
    })
    assert (lazy_reads(config) is None) == (min_m == DENSE)
    codes = engine.run_sessions(config, range(config.trials)).codes
    answered = (codes[:, 4] == 0) | (codes[:, 4] == 1)
    cells = np.bincount(2 * codes[answered, 2] + codes[answered, 4], minlength=4)  # the stored bit is 0
    samples = int(np.count_nonzero(answered))
    assert cells.size == 4
    for cell, p in enumerate(exact):
        assert within(int(cells[cell]), samples, p), (cell, cells.tolist())


@pytest.mark.parametrize("schedule", [FlipCount(2), IncrementalAttack((0.25,))], ids=["flip_count", "incremental"])
def test_a_step_flips_a_uniform_subset_of_the_read_positions(schedule):
    # m = 8: a store, four read positions, then a step of 2 flips among all 8 fresh positions. The read
    # positions it flips are a uniform pick: each set of s of them with probability C(4, 2 - s) / C(8, 2)
    rows = 40_000
    sampler = lazy.LazySampler(8, 4)
    sampler.start(rows)
    sampler.store()
    trials = np.arange(rows, dtype=np.uint64)
    sampler.read(np.tile(np.arange(4), (rows, 1)), engine.OpDraws(engine.trial_keys(1, trials)))
    sampler.attack(schedule, 0, None, None, engine.OpDraws(engine.trial_keys(2, trials)))
    flipped = lazy._P_BIT[sampler.classes[:, :4]]
    assert (sampler.counts[:, 2] == 2 - flipped.sum(axis=1)).all()
    seen = np.bincount(flipped @ (1 << np.arange(4)), minlength=16)
    for subset, count in enumerate(seen.tolist()):
        s = subset.bit_count()
        assert within(count, rows, math.comb(4, 2 - s) / math.comb(8, 2) if s <= 2 else 0.0), (subset, count)


# uniform schedules at n = 10 to 12, where three steps of each put a few percent of m apart
UNIFORM_CONFIGS = {
    "flipcount-n10": {"n": 10, "k": 3, "attack": {"kind": "flip_count", "bits_per_step": 40}, "steps": 3},
    "flipcount-n12": {"n": 12, "k": 2, "attack": {"kind": "flip_count", "bits_per_step": 150}, "steps": 3},
    "incremental-n11": {"n": 11, "k": 2, "attack": {"kind": "incremental", "deltas": [0.03, 0.05, 0.02]}},
    "incremental-n12": {"n": 12, "k": 1, "attack": {"kind": "incremental", "deltas": [0.1, 0.1, 0.1]}},
}


def uniform_config(name: str, seed: int = 0) -> ExperimentConfig:
    n = UNIFORM_CONFIGS[name]["n"]
    return ExperimentConfig.from_dict(
        {**UNIFORM_CONFIGS[name], "message": "0" * n, "record_trials": True, "trials": 20_000, "seed": seed}
    )


@pytest.mark.parametrize("name", sorted(UNIFORM_CONFIGS))
def test_lazy_rates_match_the_exact_step_law(name, monkeypatch):
    force(monkeypatch, LAZY)
    config = uniform_config(name)
    assert lazy_reads(config) == 6
    m, k = config.code.params.m, config.resolved_k()
    tally = engine.run_sessions(config, range(config.trials))
    flips = [next(iter(law)) for kind, _, law in config.ops if kind == "attack"]
    for step, d in enumerate(flips):
        assert within(tally.accepted[step], tally.reached[step], p_single(d / m) ** k), step
    # the first retrieve (op 2) decodes after one step of flips[0] uniform flips; the stored bits are 0
    answers = tally.codes[:, 2]
    d = flips[0]
    answered = int(np.count_nonzero((answers == 0) | (answers == 1)))
    assert answered == tally.accepted[0]
    assert within(int(np.count_nonzero(answers == 1)), answered, 2 * d * (m - d) / (m * (m - 1)))


@pytest.mark.parametrize("name", sorted(UNIFORM_CONFIGS))
def test_lazy_and_dense_samplers_agree(name, monkeypatch):
    tallies = []
    for min_m in (LAZY, DENSE):
        force(monkeypatch, min_m)
        config = dataclasses.replace(uniform_config(name, seed=1), record_trials=False)
        tallies.append(engine.run_sessions(config, range(config.trials)))
    deferred, dense = tallies
    trials = config.trials
    assert same_rate(deferred.buggy, trials, dense.buggy, trials)
    assert same_rate(deferred.correct, sum(deferred.accepted), dense.correct, sum(dense.accepted))
    for step in range(len(deferred.reached)):
        assert same_rate(deferred.accepted[step], deferred.reached[step], dense.accepted[step], dense.reached[step])


# every golden and engine shape with a lazy form: uniform flips, incremental-uniform and honest scripts
LAZY_SHAPES = [
    "flipcount-uniform-n6", "packed-flipcount-n7", "incremental-uniform-n3", "packed-incremental-n7",
    "reject-heavy-flipcount-n6", "honest-mixed-n8", "script-store-reject-n3", "flipcount-lazy-n15",
    "incremental-lazy-n15",
]


@pytest.mark.parametrize("name", LAZY_SHAPES)
def test_one_trial_replays_alone_lazily(name, monkeypatch):
    force(monkeypatch, LAZY)
    config = dataclasses.replace(ExperimentConfig.from_dict(ENGINE_CONFIGS[name]), trials=40, record_trials=True)
    assert lazy_reads(config) is not None
    full = run_experiment(config)
    alone = [engine.run_sessions(config, range(i, i + 1)) for i in range(config.trials)]
    assert [t.verdicts[0] for t in alone] == full.trial_verdicts
    assert sum(t.correct for t in alone) == full.tally.correct


@pytest.mark.parametrize("name", LAZY_SHAPES)
def test_lazy_results_do_not_depend_on_chunk_size(name, monkeypatch):
    force(monkeypatch, LAZY)
    config = ExperimentConfig.from_dict(ENGINE_CONFIGS[name])
    chunks = recorded_chunks(monkeypatch)
    default = run_experiment(config).results_json()
    assert chunks == [config.trials]
    session_bytes = 8 * max(lazy_reads(config), config.n, 4)  # read positions, message bits, class counts
    for size in (1, 7):
        chunks.clear()
        monkeypatch.setattr(engine, "CHUNK_BYTES", size * session_bytes)
        assert run_experiment(config).results_json() == default
        assert chunks == [size] * (config.trials // size) + [config.trials % size] * (config.trials % size > 0)


def lazy_peak(n: int) -> int:
    config = ExperimentConfig(n=n, k=1, attack=IncrementalAttack(deltas=(0.01, 0.01, 0.01)), trials=6000)
    assert lazy_reads(config) == 6
    tracemalloc.start()
    try:
        engine.run_sessions(config, range(config.trials))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lazy_memory_does_not_grow_with_m(monkeypatch):
    # a dense row at n = 20 is 128 KiB, 256 times one at n = 12
    force(monkeypatch, LAZY)
    small, large = lazy_peak(12), lazy_peak(20)
    assert large < 1.1 * small
    assert large < 8 * engine.CHUNK_BYTES


@pytest.mark.parametrize("min_m", [LAZY, DENSE], ids=["lazy", "dense"])
def test_exhausted_fresh_positions_raise_in_both_samplers(min_m, monkeypatch):
    # rounding half-fractions up flips 2, 2 and 1 of m = 4 positions; the config check
    # refuses that, so it is switched off to reach the step's own check
    monkeypatch.setattr(IncrementalAttack, "check", lambda self, code, message: None)
    force(monkeypatch, min_m)
    config = ExperimentConfig.from_dict({
        "n": 2, "k": 1, "attack": {"kind": "incremental", "deltas": [0.375, 0.375, 0.25]},
        "script": [{"op": "store"}, {"op": "attack"}, {"op": "attack"}, {"op": "attack"}, {"op": "retrieve"}],
        "trials": 20,
    })
    assert (lazy_reads(config) is None) == (min_m == DENSE)
    with pytest.raises(ScheduleError, match=re.escape("step 2 needs 1 fresh positions in every row, rows hold [0]")):
        engine.run_sessions(config, range(config.trials))


def test_lazy_rule():
    # the rule reads the config alone: m, the schedule's lazy form and the read set
    big = {"n": 16, "k": 7, "steps": 3}
    assert lazy_reads(ExperimentConfig.from_dict({**big, "attack": {"kind": "flip_count", "bits_per_step": 1024}})) == 6
    assert lazy_reads(ExperimentConfig.from_dict({**big, "attack": {"kind": "noop"}})) == 0
    prefix = {"kind": "flip_count", "bits_per_step": 1024, "policy": "prefix"}
    for attack in (prefix, {**prefix, "bits_per_step": 0}, {"kind": "substitute"}):
        assert lazy_reads(ExperimentConfig.from_dict({**big, "steps": 1, "attack": attack})) is None
    below = {**big, "n": engine.LAZY_MIN_M.bit_length() - 2, "attack": {"kind": "flip_count", "bits_per_step": 1}}
    assert lazy_reads(ExperimentConfig.from_dict(below)) is None
    # a store empties the read set: two decodes of two reads each at most between stores
    ops = ["store", "attack", "retrieve", "retrieve", "store", "attack", "retrieve"]
    script = {**big, "attack": {"kind": "flip_count", "bits_per_step": 1}, "script": [{"op": op} for op in ops]}
    del script["steps"]
    assert lazy_reads(ExperimentConfig.from_dict(script)) == 4
    # the read set is capped at LAZY_READS * m / LAZY_MIN_M = 32 positions at n = 16: 16 decodes
    assert 16 * 2 * engine.LAZY_MIN_M == engine.LAZY_READS * 2**16
    steps = {**big, "attack": {"kind": "flip_count", "bits_per_step": 1}}
    assert lazy_reads(ExperimentConfig.from_dict({**steps, "steps": 16})) == 32
    assert lazy_reads(ExperimentConfig.from_dict({**steps, "steps": 17})) is None
    # the goldens at n <= 8 stay dense, and the two at n = 15 run lazily
    assert engine.LAZY_MIN_M > 2**8
    assert lazy_reads(ExperimentConfig.from_dict(GOLDEN_CONFIGS["flipcount-lazy-n15"])) == 6
    assert lazy_reads(ExperimentConfig.from_dict(GOLDEN_CONFIGS["incremental-lazy-n15"])) == 6
