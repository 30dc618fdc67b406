"""The batch session engine against the per-trial protocol, plus its determinism and caps.

reference_tally plays each session through the library API (checker.store
and retrieve) with one numpy Generator per trial, one op at a time. An attack
op runs the schedule's apply, the engine's own corruption method, on the
session's one pattern row and flips the positions it changed with
PublicMemory.adversary_flip, so the comparison checks the engine's
verification, decode and refresh law; test_attack_law checks the schedules
against their exact step law. Every golden config shape runs under both, and
each rate must agree within 4 sigma of the pooled rate (or, near 0 and 1, on
the exact binomial tail), while the values that are exact by construction
must match exactly.
"""

import dataclasses
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from qmemcheck import adversary, engine, harness
from qmemcheck.adversary import FlipCount, IncrementalAttack, SubstituteCodeword
from qmemcheck.analysis import binomial_tail
from qmemcheck.bits import as_bits, pack_rows, unpack_rows, word_count
from qmemcheck.checker import CheckerState, PublicMemory, retrieve, store
from qmemcheck.code import HadamardCode
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
                # one pattern row, P = memory xor stored codeword, and one key drawn for it
                row = pack_rows((memory.bits ^ baseline)[None, :])
                before = row.copy()
                keys = rng.integers(2**64, size=1, dtype=np.uint64)
                config.attack.apply(attack_step, row, message[None, :], code, engine.OpDraws(keys))
                memory.adversary_flip(np.flatnonzero(unpack_rows(row ^ before, code.params.m)[0]))
                attack_step += 1
                continue
            if op.op == "store":
                spec = op.message if op.message is not None else config.message
                msg = rng.integers(0, 2, size=config.n, dtype=np.uint8) if spec == "random" else as_bits(spec)
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
    ours = engine.run_sessions(config, range(config.trials))
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

    def recorded(config, plan, indices, buffers, tally, codes):
        chunks.append(indices.size)
        return real(config, plan, indices, buffers, tally, codes)

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

    def recorded(self, step, patterns, message, code, draws):
        rows.append((step, len(patterns)))
        return real(self, step, patterns, message, code, draws)

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


@pytest.mark.parametrize("name", ["honest-mixed-n8", "flipcount-uniform-n6"])
def test_sessions_encode_nothing(name, monkeypatch):
    # rows hold corruption patterns, so a store zeroes its rows and encodes no codeword;
    # the complexity probe encodes through checker.store, outside run_sessions
    encodes, inside = [], []
    real_encode, real_run = HadamardCode.encode_batch, harness.run_sessions

    def encode(self, msgs, out=None):
        encodes.append(bool(inside))
        return real_encode(self, msgs, out)

    def run(*args):
        inside.append(True)
        try:
            return real_run(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(HadamardCode, "encode_batch", encode)
    monkeypatch.setattr(harness, "run_sessions", run)
    text = run_experiment(ExperimentConfig.from_dict(CONFIGS[name])).results_json()
    assert encodes and not any(encodes)  # the probe's encodes are seen, and none inside run_sessions
    assert text.encode() == (GOLDEN_DIR / f"{name}.results.json").read_bytes()


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
        engine.run_sessions(config, range(config.trials))
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
        engine.run_sessions(config, range(config.trials))
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
        engine.run_sessions(config, range(config.trials))
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
    full = run_experiment(config)
    alone = [engine.run_sessions(config, range(i, i + 1)) for i in range(config.trials)]
    assert [t.verdicts[0] for t in alone] == full.trial_verdicts
    whole = engine.run_sessions(config, range(config.trials))
    assert sum(t.buggy for t in alone) == whole.buggy
    assert [sum(t.reached[p] for t in alone) for p in range(len(whole.reached))] == whole.reached


def test_trials_must_be_a_step_one_range():
    config = ExperimentConfig.from_dict({**CONFIGS["script-attack-n3"], "k": 3})
    with pytest.raises(ValueError, match="step 1"):
        engine.run_sessions(config, range(0, 10, 2))
    for outside in (range(-1, 5), range(2**64 - 1, 2**64 + 1)):  # trial indices key uint64 draws
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            engine.run_sessions(config, outside)
    for empty in (range(0), range(5, 5), range(7, 3)):
        tally = engine.run_sessions(config, empty)
        assert (tally.buggy, tally.false_buggy, tally.correct) == (0, 0, 0)
        assert tally.reached == tally.accepted == [0] * len(tally.reached)
        assert tally.verdicts == []  # the config records trials: a stream for each of none


def test_trials_past_2_63_reach_the_first_chunk(monkeypatch):
    # a config takes up to 2^64 trials (MAX_TRIALS), where len() of the range raises OverflowError
    class Reached(Exception):
        pass

    def first_chunk(config, plan, indices, *rest):
        raise Reached(indices)

    monkeypatch.setattr(engine, "_run_chunk", first_chunk)
    with pytest.raises(Reached) as reached:
        engine.run_sessions(ExperimentConfig(n=2, k=1), range(harness.MAX_TRIALS))
    indices = reached.value.args[0]
    assert indices.dtype == np.uint64 and indices.tolist() == list(range(indices.size))


def test_chunk_arrays_capped_at_n16(monkeypatch):
    chunks = recorded_chunks(monkeypatch)
    config = ExperimentConfig(n=16, k=7, attack=FlipCount(bits_per_step=1024), steps=3, trials=300)
    tracemalloc.start()
    try:
        engine.run_sessions(config, range(config.trials))
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


V, MSG, IDX, MASK = engine.VERIFY_SLOT, engine.MESSAGE_SLOT, engine.INDEX_SLOT, engine.MASK_SLOT
# the benchmark's shapes of the substitution and flip_count workloads
SUBSTITUTE_N4 = {"n": 4, "k": 7, "attack": {"kind": "substitute", "target": "random"}, "trials": 1000}
FLIPCOUNT_N16 = {"n": 16, "k": 7, "attack": {"kind": "flip_count", "bits_per_step": 1024}, "steps": 3, "trials": 200}


def planned_slots(config) -> list[tuple[int, ...]]:
    return [slots for _, slots, _, _ in engine._draw_plan(config)]


@pytest.mark.parametrize(
    "raw, plan",
    [
        # honest with k auto: distance 0 accepts surely, so no verification draws,
        # and P is 0 at every retrieve, so no decode mask
        (CONFIGS["honest-mixed-n8"], [(MSG,), (IDX,), (IDX,), (MSG,), (), (MSG,), (IDX,), (IDX,)]),
        # the op after an attack op verifies, and a retrieve decodes only after an attack op
        # since its store; an explicit message and index draw nothing
        (CONFIGS["script-attack-n3"], [(), (), (), (V, MASK), (MSG,), (), (V, IDX, MASK)]),
        (CONFIGS["script-store-reject-n3"], [(MSG,), (), (V,), (), (), (V, IDX, MASK)]),
        # an attack op whose step law is {0: 1} counts as absent
        (CONFIGS["noop-n3"], [(MSG,), (), (IDX,)]),
        ({"n": 3, "attack": {"kind": "flip_count", "bits_per_step": 0}, "steps": 2}, [(MSG,), (), (IDX,), (), (IDX,)]),
        (SUBSTITUTE_N4, [(MSG,), (), (V, IDX, MASK)]),
        (FLIPCOUNT_N16, [(MSG,)] + [(), (V, IDX, MASK)] * 3),
    ],
    ids=[
        "honest-mixed-n8", "script-attack-n3", "script-store-reject-n3", "noop-n3", "zero-flips-n3", "substitute-n4",
        "flipcount-n16",
    ],
)
def test_draw_plan_reads_only_what_each_op_needs(raw, plan):
    assert planned_slots(ExperimentConfig.from_dict(raw)) == plan


def planned_values(config) -> list[tuple]:
    """Each op's kind, step and fixed value in the plan, a parsed message as a list of bits."""
    return [
        (kind, step, value.tolist() if isinstance(value, np.ndarray) else value)
        for kind, _, step, value in engine._draw_plan(config)
    ]


@pytest.mark.parametrize(
    "raw, values",
    [
        # an explicit message and index are fixed, a cycle index counts the cycle retrieves only,
        # and an attack op's value is its step law
        (CONFIGS["script-attack-n3"], [
            ("store", 0, [1, 0, 1]), ("retrieve", 0, 0), ("attack", 0, {1: 1.0}), ("retrieve", 1, 0),
            ("store", 1, None), ("attack", 1, {1: 1.0}), ("retrieve", 2, None),
        ]),
        (CONFIGS["flipcount-prefix-cycle-n5"], [
            ("store", 0, None), ("attack", 0, {3: 1.0}), ("retrieve", 0, 0), ("attack", 1, {3: 1.0}),
            ("retrieve", 1, 1),
        ]),
        (CONFIGS["honest-mixed-n8"], [
            ("store", 0, None), ("retrieve", 0, None), ("retrieve", 1, None), ("store", 1, None),
            ("retrieve", 2, 0), ("store", 2, None), ("retrieve", 3, None), ("retrieve", 4, None),
        ]),
        # the cycle wraps mod n
        ({"n": 2, "retrieve_index": "cycle", "script": [{"op": "store"}] + [{"op": "retrieve"}] * 5}, [
            ("store", 0, None), ("retrieve", 0, 0), ("retrieve", 1, 1), ("retrieve", 2, 0), ("retrieve", 3, 1),
            ("retrieve", 4, 0),
        ]),
    ],
    ids=["script-attack-n3", "flipcount-prefix-cycle-n5", "honest-mixed-n8", "cycle-wraps-n2"],
)
def test_draw_plan_fixes_steps_and_values(raw, values):
    assert planned_values(ExperimentConfig.from_dict(raw)) == values


def test_draw_plan_parses_each_message_once():
    script = [{"op": "store", "message": msg} for msg in ("10101", "01100", "10101")] + [{"op": "retrieve"}]
    plan = engine._draw_plan(ExperimentConfig.from_dict({"n": 5, "k": 1, "script": script}))
    assert plan[0][3] is plan[2][3]
    assert plan[1][3].tolist() == [0, 1, 1, 0, 0]


def test_draw_plan_verifies_every_op_when_distance_zero_may_reject(monkeypatch):
    real = engine.p_accept
    monkeypatch.setattr(engine, "p_accept", lambda frac, k: 0.5 if frac == 0 else real(frac, k))
    for name in ("honest-mixed-n8", "script-attack-n3"):
        config = ExperimentConfig.from_dict(CONFIGS[name])
        plan = planned_slots(config)
        assert V not in plan[0]  # the first store has nothing to verify
        assert all((V in slots) == (op.op != "attack") for op, slots in zip(config.build_script()[1:], plan[1:]))


def test_hashes_only_the_planned_draws(monkeypatch):
    # per session 8 op keys and 7 planned slots, where hashing all 3 slots of
    # every op would take 8 + 24; besides them, 1 + trials hashes give the trial keys
    config = dataclasses.replace(ExperimentConfig.from_dict(CONFIGS["honest-mixed-n8"]), trials=400)
    hashed = []
    real = engine._stream

    def counted(key, count):
        out = real(key, count)
        hashed.append(out.size)
        return out

    monkeypatch.setattr(engine, "_stream", counted)
    engine.run_sessions(config, range(config.trials))
    assert sum(hashed) == 1 + config.trials * (1 + 8 + 7)


def capped_row_blocks(size: int):
    """engine.row_blocks with every block cut to at most size rows: chunks of size
    sessions, and blocks of size ops inside them."""
    return lambda rows, row_bytes: (slice(r, min(r + size, rows)) for r in range(0, rows, size))


@pytest.mark.parametrize("name", ["honest-mixed-n8", "script-store-reject-n3", "flipcount-prefix-cycle-n5"])
def test_results_do_not_depend_on_op_blocks(name, monkeypatch):
    config = ExperimentConfig.from_dict(ENGINE_CONFIGS[name])
    ops = len(config.build_script())
    real = engine.row_blocks
    op_blocks = []

    def recorded(row_blocks):
        def blocks(rows, row_bytes):
            out = list(row_blocks(rows, row_bytes))
            if rows == ops:  # trials differ from ops in these configs
                op_blocks.extend(b.stop - b.start for b in out)
            return iter(out)
        return blocks

    runs = {}
    for size, row_blocks in (("script", real), (1, capped_row_blocks(1)), (2, capped_row_blocks(2))):
        op_blocks.clear()
        monkeypatch.setattr(engine, "row_blocks", recorded(row_blocks))
        runs[size] = run_experiment(config).results_json()
        assert max(op_blocks) == (ops if size == "script" else size)
    assert runs[1] == runs[2] == runs["script"] == (GOLDEN_DIR / f"{name}.results.json").read_text()


def test_store_verification_gathers_no_rows(monkeypatch):
    # a store zeroes the patterns, so rejects there only shrink the views
    calls = []
    real = engine._Buffers.compact

    def counted(self, keep):
        calls.append(keep.size)
        return real(self, keep)

    monkeypatch.setattr(engine._Buffers, "compact", counted)
    config = ExperimentConfig.from_dict({
        "n": 3, "k": 1, "attack": {"kind": "flip_count", "bits_per_step": 4},
        "script": [{"op": "store"}, {"op": "attack"}, {"op": "store"}, {"op": "retrieve"}],
        "trials": 50, "seed": 3,
    })
    # 20 of 50 sessions survive the second store's verification, the one reject pass
    assert run_experiment(config).aggregates["sessions"] == {"all_accept": 20, "buggy": 30, "false_buggy": 0}
    assert calls == []
    text = run_experiment(ExperimentConfig.from_dict(CONFIGS["script-store-reject-n3"])).results_json()
    assert len(calls) == 1  # at the last retrieve; the second store rejects too
    assert text.encode() == (GOLDEN_DIR / "script-store-reject-n3.results.json").read_bytes()


def test_false_buggy_reads_every_word_of_the_pattern():
    # m = 128: 10 prefix flips set bits of word 0 and leave word 1 zero, so a reject at
    # the first retrieve is never false buggy; the second step flips them back to the
    # stored codeword, so every reject at the second retrieve is
    config = ExperimentConfig.from_dict({
        "n": 7, "k": 1, "attack": {"kind": "flip_count", "bits_per_step": 10, "policy": "prefix"},
        "script": [{"op": "store"}, {"op": "attack"}, {"op": "retrieve"}, {"op": "attack"}, {"op": "retrieve"}],
        "trials": 400, "seed": 5,
    })
    tally = engine.run_sessions(config, range(config.trials))
    first, second = (reached - accepted for reached, accepted in zip(tally.reached, tally.accepted))
    assert first > 0 and second > 0 and tally.buggy == first + second
    assert tally.false_buggy == second


def test_decodes_read_the_counter_draws(monkeypatch):
    # every mask and random index a decode reads is counter_draw(seed, trial, op, slot);
    # every retrieve follows an attack op, and a law that accepts at every distance rejects no session
    monkeypatch.setattr(engine, "p_accept", lambda frac, k: 1.0)
    config = ExperimentConfig.from_dict({
        "n": 5, "k": 1, "attack": {"kind": "flip_count", "bits_per_step": 1}, "retrieve_index": "cycle",
        "script": [
            {"op": "store"}, {"op": "attack"}, {"op": "retrieve", "index": "random"}, {"op": "retrieve", "index": 3},
            {"op": "attack"}, {"op": "retrieve"}, {"op": "store"}, {"op": "attack"}, {"op": "retrieve"},
            {"op": "retrieve", "index": "random"},
        ],
        "trials": 3,
    })
    code, script = config.code, config.build_script()
    calls = []
    real = type(code).decode

    def recorded(self, index, masks, read):
        calls.append((index, masks.tolist()))
        return real(self, index, masks, read)

    monkeypatch.setattr(type(code), "decode", recorded)
    tally = engine.run_sessions(config, range(config.trials))
    assert tally.accepted == [config.trials] * 5  # no session rejects

    def drawn(op, slot, bound):
        return [
            int(engine._below(np.array([engine.counter_draw(config.seed, i, op, slot)], dtype=np.uint64), bound)[0])
            for i in range(config.trials)
        ]

    retrieves = [j for j, op in enumerate(script) if op.op == "retrieve"]
    assert len(calls) == len(retrieves)
    cycle = 0
    for j, (index, masks) in zip(retrieves, calls):
        assert masks == drawn(j, MASK, code.params.m)
        if script[j].index in (None, "cycle"):
            assert index == cycle
            cycle += 1
        elif script[j].index == "random":
            assert index.tolist() == drawn(j, IDX, code.params.n)
        else:
            assert index == script[j].index
    assert cycle == 2


def test_clean_retrieves_decode_nothing(monkeypatch):
    # the decode of a clean codeword is exact, so a retrieve with no attack op since
    # its store answers the stored bit without decoding
    indices = []
    real = HadamardCode.decode

    def recorded(self, index, masks, read):
        indices.append(index)
        return real(self, index, masks, read)

    monkeypatch.setattr(HadamardCode, "decode", recorded)
    for name in ("honest-mixed-n8", "noop-n3"):
        config = ExperimentConfig.from_dict(CONFIGS[name])
        engine.run_sessions(config, range(config.trials))
        assert indices == []
    # the two retrieves after the attack decode, and the ones before it and after the second store do not
    config = ExperimentConfig.from_dict({
        "n": 3, "k": 1, "attack": {"kind": "flip_count", "bits_per_step": 1},
        "script": [
            {"op": "store"}, {"op": "retrieve", "index": 0}, {"op": "attack"}, {"op": "retrieve", "index": 1},
            {"op": "retrieve", "index": 2}, {"op": "store"}, {"op": "retrieve", "index": 0},
        ],
        "trials": 50, "seed": 4,
    })
    tally = engine.run_sessions(config, range(config.trials))
    assert tally.accepted[2] > 0  # some sessions reach the last retrieve
    assert indices == [1, 2]


@pytest.mark.parametrize("m", [2, 16, 1024, 2**16])
def test_accept_prob_is_the_scalar_law_at_every_distance(m):
    # a vectorised p_single(d / m) ** k misses the scalar double at thousands of
    # distances for m >= 1024, which no golden (m <= 256) would notice
    distance = np.arange(m + 1, dtype=np.int32)
    for k in (1, 2, 3, 7, 37, 368):
        assert engine._accept_prob(distance, m, k).tolist() == [p_single(d / m) ** k for d in range(m + 1)]


@pytest.mark.parametrize("k, expected", [(3, 3), ("auto", 7)])
def test_sessions_verify_at_the_config_k(k, expected, monkeypatch):
    # a run takes its k from the config alone: "auto" resolves from epsilon = 0.01 and the code distance
    seen = []
    real = engine._accept_prob

    def recorded(distance, m, k):
        seen.append(k)
        return real(distance, m, k)

    monkeypatch.setattr(engine, "_accept_prob", recorded)
    config = ExperimentConfig.from_dict({**SUBSTITUTE_N4, "k": k, "epsilon": 0.01, "trials": 50})
    engine.run_sessions(config, range(config.trials))
    assert seen and set(seen) == {expected}


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

    def test_messages_are_the_bits_of_a_power_of_two_draw(self):
        draws = self.draws(4).u64(np.arange(50)).reshape(-1)
        for n in range(1, 21):
            value = engine._below(draws, 1 << n)
            assert engine._messages(draws, n).tolist() == [[int(b) for b in f"{v:0{n}b}"] for v in value.tolist()], n

    def test_rows_independent_of_chunk(self):
        # a row's subset depends on its own key only
        full = self.draws(12).distinct(64, 20)
        for row in (0, 5, 11):
            keys = self.draws(12).keys[row : row + 1]
            assert np.array_equal(engine.OpDraws(keys).distinct(64, 20)[0], full[row])

