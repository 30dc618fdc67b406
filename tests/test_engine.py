"""The batch session engine against the per-trial protocol, plus its determinism and caps.

reference_tally plays each session through the library API (checker.store
and retrieve, adversary.apply_step) with one numpy Generator per trial, one
op at a time. apply_step runs the same schedule code as the engine, on one
row, so the comparison checks the engine's verification, decode and refresh
law; test_attack_law checks the schedules against their exact step law. Every
golden config shape runs under both, and each rate must agree within 4 sigma
of the pooled rate (or, near 0 and 1, on the exact binomial tail), while the
values that are exact by construction must match exactly.
"""

import dataclasses
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from qmemcheck import adversary, engine, harness
from qmemcheck.adversary import FlipCount, IncrementalAttack, SubstituteCodeword, apply_step
from qmemcheck.analysis import binomial_tail
from qmemcheck.bits import word_count
from qmemcheck.checker import CheckerState, PublicMemory, retrieve, store
from qmemcheck.fingerprint import p_single
from qmemcheck.harness import ExperimentConfig, run_experiment
from test_golden import CONFIGS, GOLDEN_DIR

# attacked shapes at m = 8 (one word, mostly padding) and m = 128 (two whole words)
PACKED_CONFIGS = {
    "packed-flipcount-n3": {
        "n": 3, "k": 2, "attack": {"kind": "flip_count", "bits_per_step": 3}, "steps": 3, "trials": 120, "seed": 11,
    },
    "packed-flipcount-n7": {
        "n": 7, "k": 2, "attack": {"kind": "flip_count", "bits_per_step": 9}, "steps": 3, "trials": 120, "seed": 12,
    },
    "packed-substitute-n3": {"n": 3, "k": 1, "attack": {"kind": "substitute"}, "trials": 120, "seed": 13},
    "packed-substitute-n7": {"n": 7, "k": 1, "attack": {"kind": "substitute"}, "trials": 120, "seed": 14},
    "packed-incremental-n3": {
        "n": 3, "k": 1, "attack": {"kind": "incremental", "deltas": [0.25, 0.25]}, "trials": 120, "seed": 15,
    },
    "packed-incremental-n7": {
        "n": 7, "k": 1, "attack": {"kind": "incremental", "deltas": [0.1, 0.1, 0.1]}, "trials": 120, "seed": 16,
    },
}
# k = 3 and 6 of 64 positions a step: about 43% of the live sessions reject at each retrieve
REJECT_CONFIGS = {
    "reject-heavy-flipcount-n6": {
        "n": 6, "k": 3, "attack": {"kind": "flip_count", "bits_per_step": 6}, "steps": 4,
        "record_trials": True, "trials": 120, "seed": 19,
    },
}
ENGINE_CONFIGS = {**CONFIGS, **PACKED_CONFIGS, **REJECT_CONFIGS}


def reference_tally(config: ExperimentConfig) -> engine.Tally:
    """The per-trial protocol loop: library calls on one memory per session."""
    code, k, script = config.code, config.resolved_k(), config.build_script()
    n_retrieves = sum(op.op == "retrieve" for op in script)
    tally = engine.Tally([0] * n_retrieves, [0] * n_retrieves)
    for trial in range(config.trials):
        rng = np.random.default_rng([config.seed, trial])
        state, memory = CheckerState(code, k), PublicMemory()
        baseline = message = None
        attack_step = retrieve_pos = cycle = 0
        for op in script:
            if op.op == "attack":
                apply_step(config.attack, attack_step, memory, code, baseline, rng)
                attack_step += 1
                continue
            if op.op == "store":
                spec = op.message if op.message is not None else config.message
                msg = rng.integers(0, 2, size=config.n, dtype=np.uint8) if spec == "random" else np.array([int(b) for b in spec])
                verdict = store(state, memory, msg, rng)
            else:
                index = op.index if op.index is not None else config.retrieve_index
                if index == "random":
                    index = int(rng.integers(config.n))
                elif index == "cycle":
                    index, cycle = cycle % config.n, cycle + 1
                tally.reached[retrieve_pos] += 1
                verdict = retrieve(state, memory, index, rng)
            if verdict.is_buggy:
                tally.buggy += 1
                tally.false_buggy += baseline is not None and np.array_equal(memory.bits, baseline)
                break
            if op.op == "store":
                message, baseline = msg, state.fingerprint.phases
            else:
                tally.accepted[retrieve_pos] += 1
                retrieve_pos += 1
                tally.correct += int(verdict.bit == message[index])
    return tally


def same_rate(count_a: int, samples_a: int, count_b: int, samples_b: int) -> bool:
    """Two binomial counts agree: inside 4 sigma of the pooled rate, or, where
    that band is too narrow, while the exact tail of the first count under the
    pooled rate is at least Phi(-4), the rule harness._rate_check applies."""
    if samples_a == 0 or samples_b == 0:
        return True  # no evidence on one side
    pooled = (count_a + count_b) / (samples_a + samples_b)
    if pooled in (0.0, 1.0):
        return True  # both exactly 0, or both exactly 1
    sigma = math.sqrt(pooled * (1 - pooled) * (1 / samples_a + 1 / samples_b))
    if abs(count_a / samples_a - count_b / samples_b) <= 4 * sigma:
        return True
    return binomial_tail(count_a, samples_a, pooled, stop=harness.TAIL_ALPHA) >= harness.TAIL_ALPHA


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_engine_matches_reference_protocol(name):
    config = dataclasses.replace(ExperimentConfig.from_dict(CONFIGS[name]), trials=1000, record_trials=False)
    ours = engine.run_sessions(config, config.resolved_k(), range(config.trials))
    ref = reference_tally(config)
    trials = config.trials
    pairs = {
        "buggy": (ours.buggy, trials, ref.buggy, trials),
        "false_buggy": (ours.false_buggy, trials, ref.false_buggy, trials),
        "correctness": (ours.correct, sum(ours.accepted), ref.correct, sum(ref.accepted)),
    }
    for pos in range(len(ours.reached)):
        pairs[f"per_step_accept[{pos}]"] = (ours.accepted[pos], ours.reached[pos], ref.accepted[pos], ref.reached[pos])
    for rate, counts in pairs.items():
        assert same_rate(*counts), f"{name}: {rate} {counts}"
    if not ref.buggy:  # honest runs: completeness and the answer count are exact
        assert (ours.buggy, ours.false_buggy) == (0, 0)
        assert ours.correct == sum(ours.accepted) == sum(ref.accepted) == ref.correct
        assert ours.reached == ref.reached == ours.accepted


def session_bytes(config) -> int:
    """The engine's bytes per session: its packed row, a drawn message's int64 bits and 3 draws."""
    return 8 * max(word_count(config.code.params.m), config.n, 3)


def recorded_chunks(monkeypatch) -> list[int]:
    """The session count of every chunk the engine runs from now on, in order."""
    chunks = []
    real = engine._run_chunk

    def recorded(config, k, script, messages, indices, buffers, tally):
        chunks.append(indices.size)
        return real(config, k, script, messages, indices, buffers, tally)

    monkeypatch.setattr(engine, "_run_chunk", recorded)
    return chunks


@pytest.mark.parametrize(
    "name", ["substitute-random-n4", "honest-mixed-n8", "script-store-reject-n3", *PACKED_CONFIGS, *REJECT_CONFIGS],
)
def test_results_do_not_depend_on_chunk_size(name, monkeypatch):
    config = ExperimentConfig.from_dict(ENGINE_CONFIGS[name])
    chunks = recorded_chunks(monkeypatch)
    default = run_experiment(config).results_json()
    assert chunks == [config.trials]  # the default runs one chunk
    for size in (1, 7):
        chunks.clear()
        monkeypatch.setattr(engine, "CHUNK_BYTES", size * session_bytes(config))
        assert run_experiment(config).results_json() == default
        assert chunks == [size] * (config.trials // size) + [config.trials % size] * (config.trials % size > 0)


def test_attack_steps_run_on_live_sessions_only(monkeypatch):
    # a session's first reject ends it, so attack step i sees the sessions that reach retrieve i
    config = ExperimentConfig.from_dict(REJECT_CONFIGS["reject-heavy-flipcount-n6"])
    rows = []
    real = FlipCount.apply

    def recorded(self, step, memory, baseline, code, draws):
        rows.append((step, len(memory)))
        return real(self, step, memory, baseline, code, draws)

    monkeypatch.setattr(FlipCount, "apply", recorded)
    per_step = run_experiment(config).aggregates["per_step_accept"]
    assert per_step[-1]["reached"] < per_step[0]["reached"] == config.trials
    assert rows == [(entry["step"], entry["reached"]) for entry in per_step]


def test_honest_runs_take_no_distance_pass(monkeypatch):
    # only attack ops change the memory between refreshes, and this script has none
    calls = []
    real = engine._Buffers.distance

    def counted(self, a, b):
        calls.append(a.shape[0])
        return real(self, a, b)

    monkeypatch.setattr(engine._Buffers, "distance", counted)
    text = run_experiment(ExperimentConfig.from_dict(CONFIGS["honest-mixed-n8"])).results_json()
    assert calls == []
    assert text.encode() == (GOLDEN_DIR / "honest-mixed-n8.results.json").read_bytes()


def test_distance_zero_shortcut_reads_the_law(monkeypatch):
    # were an unattacked memory to fail a verification, survivors would move at
    # the second retrieve, and the third must see the attack against their own
    # snapshot; one-session chunks never move a row
    real = engine.p_accept
    monkeypatch.setattr(engine, "p_accept", lambda frac, k: 0.5 if frac == 0 else real(frac, k))
    config = ExperimentConfig.from_dict({
        "n": 5, "k": 1, "attack": {"kind": "flip_count", "bits_per_step": 8},
        "script": [{"op": "store"}, {"op": "retrieve"}, {"op": "retrieve"}, {"op": "attack"}, {"op": "retrieve"}],
        "record_trials": True, "trials": 200, "seed": 20,
    })
    default = run_experiment(config).results_json()
    assert json.loads(default)["aggregates"]["sessions"]["buggy"] > config.trials / 2
    for size in (1, 7):
        monkeypatch.setattr(engine, "CHUNK_BYTES", size * session_bytes(config))
        assert run_experiment(config).results_json() == default


INCREMENTAL_CONFIGS = {
    name: ENGINE_CONFIGS[name] for name in ("incremental-uniform-n3", "incremental-prefix-reach-n3", "packed-incremental-n7")
}
# m = 1024: 32 rows per span of fresh positions; the second step draws 358 of 614 through the complement
INCREMENTAL_CONFIGS["complement-incremental-n10"] = {
    "n": 10, "k": 1, "attack": {"kind": "incremental", "deltas": [0.4, 0.35]}, "trials": 120, "seed": 18,
}


def split_block_results(config, monkeypatch) -> list[str]:
    """results.json of config, run twice with the schedule's row blocks split inside the
    engine's chunks: with CHUNK_BYTES at four sessions' bytes, where blocks and spans of
    larger rows hold fewer rows than a chunk, and with one-row blocks and spans in chunks
    of the default size, which also splits blocks whose rows are smaller than a session's."""
    runs = []
    with monkeypatch.context() as patch:
        patch.setattr(engine, "CHUNK_BYTES", 4 * session_bytes(config))
        runs.append(run_experiment(config).results_json())
    with monkeypatch.context() as patch:
        patch.setattr(adversary, "row_blocks", lambda rows, row_bytes: (slice(r, r + 1) for r in range(rows)))
        runs.append(run_experiment(config).results_json())
    return runs


@pytest.mark.parametrize("name", sorted(INCREMENTAL_CONFIGS))
def test_incremental_row_blocks_do_not_change_results(name, monkeypatch):
    # incremental steps draw for a block of rows and unpack a span of them at a time
    config = ExperimentConfig.from_dict(INCREMENTAL_CONFIGS[name])
    default = run_experiment(config).results_json()
    assert split_block_results(config, monkeypatch) == [default, default]


FLIP_CONFIGS = {
    name: ENGINE_CONFIGS[name] for name in ("flipcount-uniform-n6", "flipcount-prefix-cycle-n5", "packed-flipcount-n7")
}
# m = 16 with 11 flips per step: distinct samples the complement of 5 positions
FLIP_CONFIGS["complement-flipcount-n4"] = {
    "n": 4, "k": 1, "attack": {"kind": "flip_count", "bits_per_step": 11}, "steps": 2, "trials": 120, "seed": 17,
}


@pytest.mark.parametrize("name", sorted(FLIP_CONFIGS))
def test_flip_count_row_blocks_do_not_change_results(name, monkeypatch):
    # flip_count steps draw and flip a block of rows at a time
    config = ExperimentConfig.from_dict(FLIP_CONFIGS[name])
    default = run_experiment(config).results_json()
    assert split_block_results(config, monkeypatch) == [default, default]


@pytest.mark.parametrize("flips, trials", [(410, 2000), (3000, 600)])
def test_dense_flip_count_arrays_capped(flips, trials):
    # at m = 4096 a chunk holds 512 sessions; 410 flips draw directly, 3,000 through the complement
    config = ExperimentConfig(n=12, k=1, attack=FlipCount(bits_per_step=flips), steps=3, trials=trials)
    tracemalloc.start()
    try:
        engine.run_sessions(config, 1, range(config.trials))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * engine.CHUNK_BYTES


@pytest.mark.parametrize("deltas, trials", [([0.1, 0.1, 0.1], 2000), ([0.1, 0.5], 600)])
def test_dense_incremental_arrays_capped(deltas, trials):
    # at m = 4096 a chunk holds 512 sessions; the 0.5 step draws 2,048 of 3,686 through the complement
    config = ExperimentConfig(n=12, k=1, attack=IncrementalAttack(deltas=deltas), trials=trials)
    tracemalloc.start()
    try:
        engine.run_sessions(config, 1, range(config.trials))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * engine.CHUNK_BYTES


@pytest.mark.parametrize(
    "config",
    [
        # 1-bit flips at m = 16: a packed row is one word, so a session's other arrays set its bytes
        ExperimentConfig(n=4, k=1, attack=FlipCount(bits_per_step=1), steps=3, trials=40_000),
        # 201 ops: a (sessions, ops) table of draw keys would be 13 MB
        ExperimentConfig(n=4, k=1, steps=100, trials=8192),
    ],
    ids=["small-m", "long-script"],
)
def test_small_m_session_arrays_capped(config):
    tracemalloc.start()
    try:
        engine.run_sessions(config, 1, range(config.trials))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * engine.CHUNK_BYTES


@pytest.mark.parametrize(
    "row_bytes, cap",
    [
        (1, engine.CHUNK_BYTES),
        (24, engine.CHUNK_BYTES // 24),
        (1000, engine.CHUNK_BYTES // 1000),
        (engine.CHUNK_BYTES, 1),
        (engine.CHUNK_BYTES + 1, 1),  # a row over the cap still runs, one at a time
        (0, 1),
    ],
)
def test_row_blocks_cover_rows_once_in_order(row_bytes, cap):
    for rows in (0, 1, cap - 1, cap, cap + 1):
        blocks = list(engine.row_blocks(rows, row_bytes))
        assert [b.start for b in blocks] + [rows] == [0] + [b.stop for b in blocks]
        assert [b.stop - b.start for b in blocks] == [cap] * (rows // cap) + [rows % cap] * (rows % cap > 0)


@pytest.mark.parametrize("name", ["script-attack-n3", "honest-mixed-n8", "flipcount-uniform-n6", *PACKED_CONFIGS])
def test_one_trial_replays_alone(name):
    config = dataclasses.replace(ExperimentConfig.from_dict(ENGINE_CONFIGS[name]), trials=40, record_trials=True)
    k = config.resolved_k()
    full = run_experiment(config)
    alone = [engine.run_sessions(config, k, range(i, i + 1)) for i in range(config.trials)]
    assert [t.verdicts[0] for t in alone] == full.trial_verdicts
    whole = engine.run_sessions(config, k, range(config.trials))
    assert sum(t.buggy for t in alone) == whole.buggy
    assert [sum(t.reached[p] for t in alone) for p in range(len(whole.reached))] == whole.reached


def test_trials_must_be_a_step_one_range():
    config = ExperimentConfig.from_dict(CONFIGS["script-attack-n3"])
    with pytest.raises(ValueError, match="step 1"):
        engine.run_sessions(config, 3, range(0, 10, 2))
    for outside in (range(-1, 5), range(2**64 - 1, 2**64 + 1)):  # trial indices key uint64 draws
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            engine.run_sessions(config, 3, outside)
    for k in (0, -3):  # no comparison copy would mean no verification at all
        with pytest.raises(ValueError, match="k must be >= 1"):
            engine.run_sessions(config, k, range(10))
    for empty in (range(0), range(5, 5), range(7, 3)):
        tally = engine.run_sessions(config, 3, empty)
        assert (tally.buggy, tally.false_buggy, tally.correct) == (0, 0, 0)
        assert tally.reached == tally.accepted == [0] * len(tally.reached)
        assert tally.verdicts == []  # the config records trials: a stream for each of none


def test_chunk_arrays_capped_at_n16(monkeypatch):
    chunks = recorded_chunks(monkeypatch)
    config = ExperimentConfig(n=16, k=7, attack=FlipCount(bits_per_step=1024), steps=3, trials=300)
    tracemalloc.start()
    try:
        engine.run_sessions(config, 7, range(config.trials))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunks == [32] * 9 + [12]
    # four (T, W) word arrays of 2^18 bytes, and nothing larger: 300 sessions in one chunk would need 9.4 MB
    assert peak < 8 * engine.CHUNK_BYTES


def test_two_sessions_per_chunk_at_n20(monkeypatch):
    chunks = recorded_chunks(monkeypatch)
    config = ExperimentConfig(n=20, k=7, attack=FlipCount(bits_per_step=64), steps=2, trials=3)
    agg = run_experiment(config).aggregates
    assert chunks == [2, 1]  # a packed row is 128 KiB
    assert all(b["passed"] for b in agg["bounds"])


def test_max_k_draws_one_uniform_per_verification():
    # k uniforms per verification would be 10^9 draws here
    config = ExperimentConfig(n=4, k=harness.MAX_K, attack=SubstituteCodeword(), trials=1000)
    start = time.perf_counter()
    agg = run_experiment(config).aggregates
    assert time.perf_counter() - start < 1.0
    assert agg["sessions"]["buggy"] == 1000  # 2^-(10^6) accepts nothing
    assert all(b["passed"] for b in agg["bounds"])


@pytest.mark.parametrize("m", [2, 16, 1024, 2**16])
def test_accept_prob_is_the_scalar_law_at_every_distance(m):
    # a vectorised p_single(d / m) ** k misses the scalar double at thousands of
    # distances for m >= 1024, which no golden (m <= 256) would notice
    distance = np.arange(m + 1, dtype=np.int32)
    for k in (1, 2, 3, 7, 37, 368):
        assert engine._accept_prob(distance, m, k).tolist() == [p_single(d / m) ** k for d in range(m + 1)]


class TestDraws:
    def draws(self, rows, op=0):
        return engine.OpDraws(engine._stream(engine.trial_keys(5, np.arange(rows, dtype=np.uint64)), op))

    @pytest.mark.parametrize("bound, count", [(65536, 1024), (10, 3), (10, 5), (10, 6), (7, 7), (9, 0), (1, 1)])
    def test_rows_are_distinct_sorted_subsets(self, bound, count):
        out = self.draws(50).distinct(bound, count)
        assert out.shape == (50, count)
        assert ((0 <= out) & (out < bound)).all()
        assert (np.diff(out, axis=1) > 0).all()

    @pytest.mark.parametrize("count", [2, 4])  # directly, and through the complement
    def test_subsets_are_uniform(self, count):
        bound, rows = 6, 15_000
        subsets = [tuple(row) for row in self.draws(rows).distinct(bound, count).tolist()]
        n_subsets = math.comb(bound, count)
        counts = np.array([subsets.count(s) for s in set(subsets)])
        assert counts.size == n_subsets
        expected = rows / n_subsets
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 45  # 14 degrees of freedom: P(chi2 > 45) < 1e-4

    def test_power_of_two_bounds_take_the_top_bits(self):
        # floor(uniform * 2^b) is exact up to b = 53, so every value is equally likely; the
        # shift that takes the top bits must agree with the product at the edges of the 53
        # bits a uniform keeps, and at bound 1, where it would shift by all 64 bits
        edges = np.array([0, 2**64 - 1, 2**63, 2**11 - 1, 2**11], dtype=np.uint64)
        draws = np.concatenate([edges, self.draws(4).u64(np.arange(250)).reshape(-1)])
        for bits in range(54):
            out = engine._below(draws, 1 << bits)
            assert out.dtype == np.int64
            assert out.tolist() == [d >> (64 - bits) for d in draws.tolist()], bits
            assert np.array_equal(out, (engine._uniform(draws) * (1 << bits)).astype(np.int64)), bits

    def test_rows_independent_of_chunk(self):
        # a row's subset depends on its own key only
        full = self.draws(12).distinct(64, 20)
        for row in (0, 5, 11):
            keys = self.draws(12).keys[row : row + 1]
            assert np.array_equal(engine.OpDraws(keys).distinct(64, 20)[0], full[row])

