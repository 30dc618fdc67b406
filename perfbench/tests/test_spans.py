"""Span arithmetic on hand-built span trees, and the tracer's wrap/restore contract."""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import spans as sp


def span(name, start, end, parent=-1, trial=-1, extra=None):
    return [name, start, end, parent, trial, extra]


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert sp.covered([(1, 3), (2, 5), (6, 7)], 0, 10) == pytest.approx(5.0)
    assert sp.covered([(-2, 1), (9, 12)], 0, 10) == pytest.approx(2.0)
    assert sp.covered([], 0, 10) == 0.0
    assert sp.covered([(4, 4), (5, 3)], 0, 10) == 0.0


def test_self_time_subtracts_only_direct_children():
    tree = [
        span("cli.main", 0.0, 10.0),  # 0
        span("cli.run_experiment", 1.0, 9.0, parent=0),  # 1
        span("harness.store", 2.0, 4.0, parent=1),  # 2
        span("bits.as_bits", 2.5, 3.0, parent=2),  # 3: grandchild of 1, not subtracted from it
        span("harness.retrieve", 3.5, 6.0, parent=1),  # 4: overlaps 2 on [3.5, 4]
    ]
    children = sp.children_index(tree)
    assert children[-1] == [0]
    assert children[1] == [2, 4]
    assert sp.self_time(tree, 0, children) == pytest.approx(2.0)
    assert sp.self_time(tree, 1, children) == pytest.approx(8.0 - 4.0)
    assert sp.self_time(tree, 2, children) == pytest.approx(1.5)
    assert sp.self_time(tree, 3, children) == pytest.approx(0.5)
    assert list(sp.ancestors(tree, 3)) == [2, 1, 0]


def test_percentile_interpolates_like_numpy():
    assert sp.percentile([4.0, 1.0, 3.0, 2.0], 50) == pytest.approx(2.5)
    assert sp.percentile([float(i) for i in range(1, 101)], 99) == pytest.approx(99.01)
    assert sp.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        sp.percentile([], 50)


def test_swap_useful_ratio_counts_tests_up_to_the_first_reject():
    tree = [span("checker._verification_accepts", 0, 10), span("checker._verification_accepts", 10, 20)]
    tree += [span("checker.sample_swap_test", i, i + 1, parent=0, extra=bit) for i, bit in enumerate([0, 1, 0, 1])]
    tree += [span("checker.sample_swap_test", 10 + i, 11 + i, parent=1, extra=(0, 3)) for i in range(3)]
    # first verification: 2 useful of 4; second never rejects: 3 of 3
    assert sp.swap_useful_ratio(tree) == pytest.approx(5 / 7)
    assert sp.swap_useful_ratio([span("cli.main", 0, 1)]) is None


def _session_tree():
    """cli.main > run_experiment > (trial: store, retrieve) + outputs; all times in seconds."""
    return [
        span("cli.main", 0.0, 1.0),  # 0
        span("cli.run_experiment", 0.1, 0.8, parent=0),  # 1
        span("harness.derive_trial_seed", 0.10, 0.11, parent=1, trial=0),  # 2
        span("harness.store", 0.2, 0.3, parent=1, trial=0, extra=False),  # 3
        span("code.HadamardCode.encode", 0.21, 0.23, parent=3, trial=0),  # 4
        span("harness.apply_step", 0.32, 0.38, parent=1, trial=0),  # 5
        span("harness.retrieve", 0.4, 0.6, parent=1, trial=0, extra=False),  # 6
        span("checker.PublicMemory.fetch_summaries", 0.41, 0.42, parent=6, trial=0, extra=2),  # 7
        span("checker.sample_swap_test", 0.43, 0.44, parent=6, trial=0, extra=(0, 1)),  # 8
        span("checker.sample_swap_test", 0.44, 0.45, parent=6, trial=0, extra=(0, 1)),  # 9
        span("code.HadamardCode.decode_query_plan", 0.46, 0.47, parent=6, trial=0),  # 10
        span("checker.PublicMemory.read_bits", 0.47, 0.48, parent=6, trial=0, extra=2),  # 11
        span("code.HadamardCode.decode_from_answers", 0.48, 0.50, parent=6, trial=0),  # 12
        span("checker.PublicMemory.fetch_summaries", 0.51, 0.52, parent=6, trial=0, extra=2),  # 13
        span("harness.ExperimentResult.write_outputs", 0.7, 0.8, parent=1),  # 14
        span("harness.ExperimentResult.results_json", 0.71, 0.75, parent=14),  # 15: inside 14
        span("harness.ExperimentResult.results_json", 0.85, 0.95, parent=0),  # 16: stdout copy
    ]


def test_call_layers_on_a_hand_built_session():
    layers = sp.call_layers(_session_tree(), m=8)
    sc = layers.scalars
    # run_experiment 0.7 s minus children 0.01 + 0.1 + 0.06 + 0.2 + 0.1
    assert sc["harness.self_s"] == pytest.approx(0.23)
    # outermost output spans only: write_outputs 0.1 + stdout results_json 0.1
    assert sc["harness.output_s"] == pytest.approx(0.2)
    # cli.main 1.0 s minus run_experiment 0.7 and the stdout rendering 0.1
    assert sc["cli.self_ms"] == pytest.approx(200.0)
    assert (sc["checker.stores"], sc["checker.retrieves"], sc["checker.reject_ratio"]) == (1, 1, 0.0)
    assert (sc["checker.summaries"], sc["checker.bits_read"]) == (4, 2)
    assert sc["fingerprint.swap_tests"] == 2
    assert sc["fingerprint.bytes_compared"] == 2 * 8 * 2
    assert sc["fingerprint.swap_useful_ratio"] == 1.0
    assert layers.samples["code.decode_us"] == [pytest.approx(0.03)]
    assert layers.samples["checker.store_us"] == [pytest.approx(0.1)]
    # retrieve 0.2 s minus its eight children, 0.08 s in all
    assert sorted(layers.samples["checker.self_us"]) == [pytest.approx(0.08), pytest.approx(0.12)]
    assert sc["analysis.lemma2_schedules_per_s"] == 0.0


def test_op_traffic_reconciles_with_the_complexity_block():
    tree = _session_tree()
    # k=2, m=8: L=3, s=6, t=2*2*3+2=14
    assert sp.check_op_traffic(tree, {"s_qubits": 6, "t_qubits_per_retrieve": 14}, k=2, m=8) == []
    assert sp.check_op_traffic(tree, {"s_qubits": 6, "t_qubits_per_retrieve": 15}, k=2, m=8)
    assert sp.check_op_traffic(tree, {"s_qubits": 9, "t_qubits_per_retrieve": 14}, k=2, m=8)
    tree[11][sp.EXTRA] = 3  # a retrieve that read three bits
    assert sp.check_op_traffic(tree, {"s_qubits": 6, "t_qubits_per_retrieve": 14}, k=2, m=8)


def test_swap_distance_check_applies_only_after_an_adversary_step():
    tree = _session_tree()
    assert sp.check_swap_distances(tree, 1) == []
    assert sp.check_swap_distances(tree, 2)
    tree[5][sp.NAME] = "harness.store"  # the retrieve no longer follows a step
    assert sp.check_swap_distances(tree, 2) == []


def test_tracer_records_parents_trials_and_restores_names(monkeypatch):
    mod = types.ModuleType("fake_layer")

    class Box:
        def twice(self, x):
            return 2 * x

    def outer(seed, index):
        return Box().twice(index) + 1

    mod.Box, mod.outer = Box, outer
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    tracer = sp.Tracer([
        sp.Patch("fake_layer", None, "outer", "harness.derive_trial_seed"),
        sp.Patch("fake_layer", "Box", "twice", "box.twice", lambda tracer, args, result: result),
        sp.Patch("fake_layer", None, "gone", "fake.gone"),
        sp.Patch("no_such_module_here", None, "x", "fake.module"),
    ])
    tracer.install()
    try:
        assert mod.outer(0, 5) == 11
    finally:
        tracer.uninstall()
    assert tracer.absent == ["fake.gone", "fake.module"]
    assert mod.outer is outer and Box.twice.__name__ == "twice" and not hasattr(Box.twice, "__wrapped__")
    names = [(s[sp.NAME], s[sp.PARENT], s[sp.TRIAL], s[sp.EXTRA]) for s in tracer.spans]
    assert names == [("harness.derive_trial_seed", -1, 5, None), ("box.twice", 0, 5, 10)]
    assert all(s[sp.START] <= s[sp.END] for s in tracer.spans)
    tracer.reset()
    assert tracer.spans == []


def test_swap_distance_recording_stops_when_the_budget_is_spent():
    fp = types.SimpleNamespace
    a, b = fp(phases=np.array([0, 1, 1, 0])), fp(phases=np.array([1, 1, 0, 0]))
    tracer = sp.Tracer([], distance_checks=1)
    outcome = types.SimpleNamespace(bit=1)
    assert sp._swap_outcome(tracer, (a, b), outcome) == (1, 2)
    assert sp._swap_outcome(tracer, (a, b), outcome) == 1
    tracer.reset()
    assert sp._swap_outcome(tracer, (a, b), outcome) == (1, 2)


def test_reported_per_layer_metrics_match_benchmark_json():
    layers = sp.call_layers(_session_tree(), m=8)
    assert set(layers.samples) == set(sp.TIMING_METRICS)
    # results_bytes comes from the documents written, not from spans
    assert set(layers.scalars) | {"harness.results_bytes"} == set(sp.SCALAR_UNITS)
    reported = {n for t in sp.TIMING_METRICS for n in (t, t + ".p99")} | set(sp.SCALAR_UNITS)
    reported.add("trace.overhead_frac")
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["per_layer"]} == reported
