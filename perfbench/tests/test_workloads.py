"""Each exact-value check passes a document at the exact value and flags one with a wrong value."""

import copy
import math

import pytest

from workloads import K, WORKLOADS, check_document, p_single


def simulate_doc(name):
    w = WORKLOADS[name]
    n, trials = w.config["n"], w.trials
    agg = {
        "trials": trials,
        "k": K,
        "complexity": {"s_qubits": K * n, "t_qubits_per_retrieve": 2 * K * n + 2},
        "bounds": [{"name": "some_bound", "passed": True}],
        "sessions": {"buggy": 0, "false_buggy": 0},
        "counts": {"answers_total": 5 * trials},
        "rates": {"buggy": 0.0, "correctness": 1.0},
        "per_step_accept": [],
    }
    doc = {"aggregates": agg}
    if name == "substitute-n4":
        agg["rates"]["buggy"] = 1 - 0.5**K
    elif name == "flipcount-n16":
        rate = p_single(1024 / 65536) ** K
        reached = [trials, round(trials * rate), round(trials * rate**2)]
        agg["per_step_accept"] = [{"step": i, "reached": r, "rate": rate} for i, r in enumerate(reached)]
    elif name == "honest-mixed-n8":
        doc["trial_verdicts"] = [[] for _ in range(trials)]
    return doc


SIMULATE = ("substitute-n4", "flipcount-n16", "honest-mixed-n8")


@pytest.mark.parametrize("name", SIMULATE)
def test_exact_documents_pass(name):
    assert check_document(WORKLOADS[name], "results.json", simulate_doc(name)) == []


def test_flip_p_single_matches_the_closed_form():
    assert p_single(1024 / 65536) ** K == pytest.approx(0.80355, abs=1e-5)


def mutated(name, edit):
    doc = simulate_doc(name)
    edit(doc)
    return check_document(WORKLOADS[name], "results.json", doc)


def test_substitute_flags_a_wrong_detection_rate():
    # 4 sigma at 1000 trials is about 0.011
    assert mutated("substitute-n4", lambda d: d["aggregates"]["rates"].update(buggy=0.975))
    assert mutated("substitute-n4", lambda d: d["aggregates"]["rates"].update(buggy=1 - 0.5**K - 0.003)) == []


@pytest.mark.parametrize("step", [0, 1, 2])
def test_flipcount_flags_a_wrong_rate_at_any_step(step):
    assert mutated("flipcount-n16", lambda d: d["aggregates"]["per_step_accept"][step].update(rate=0.6))


def test_flipcount_flags_a_missing_step():
    assert mutated("flipcount-n16", lambda d: d["aggregates"]["per_step_accept"].pop())


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["aggregates"]["rates"].update(correctness=0.9999),
        lambda d: d["aggregates"]["sessions"].update(buggy=1),
        lambda d: d["aggregates"]["sessions"].update(false_buggy=1),
        lambda d: d["aggregates"]["counts"].update(answers_total=4999),
        lambda d: d["trial_verdicts"].pop(),
    ],
)
def test_honest_mixed_flags_any_inexact_value(edit):
    assert mutated("honest-mixed-n8", edit)


@pytest.mark.parametrize("name", SIMULATE)
def test_every_simulate_workload_checks_complexity_and_bounds(name):
    assert mutated(name, lambda d: d["aggregates"]["complexity"].update(t_qubits_per_retrieve=1))
    assert mutated(name, lambda d: d["aggregates"]["complexity"].update(s_qubits=1))
    assert mutated(name, lambda d: d["aggregates"]["bounds"][0].update(passed=False))
    assert mutated(name, lambda d: d["aggregates"].update(trials=1))


def test_verify_grid_documents():
    w = WORKLOADS["verify-grid"]
    schedules = sum(math.comb(w.grid + t, t) for t in range(1, w.t_max + 1))
    lemma2 = {"samples": schedules, "passed": True, "details": {"violations": 0}}
    oracle = {"empirical": 3e-16, "passed": True}
    assert check_document(w, "lemma2.json", lemma2) == []
    assert check_document(w, "oracle.json", oracle) == []
    for edit in (
        lambda d: d.update(samples=schedules - 1),
        lambda d: d["details"].update(violations=1),
        lambda d: d.update(passed=False),
    ):
        bad = copy.deepcopy(lemma2)
        edit(bad)
        assert check_document(w, "lemma2.json", bad)
    assert check_document(w, "oracle.json", {"empirical": 2e-10, "passed": True})
    assert check_document(w, "oracle.json", {"empirical": None, "passed": True})


def test_schedule_count_formula_matches_the_acceptance_grid():
    # verify_lemma2(grid=20, t_max=4) enumerates 12,649 schedules
    assert sum(math.comb(20 + t, t) for t in range(1, 5)) == 12_649
    assert sum(math.comb(60 + t, t) for t in range(1, 5)) == 677_039
