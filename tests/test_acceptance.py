"""End-to-end acceptance checks for the full protocol stack.

Each test covers one headline property, prints a single PASS/FAIL summary
line (run pytest with -s to see them all), and pins its tolerance and
runtime budget explicitly. Monte Carlo comparisons use 4-standard-error
bands around the closed-form rate; everything else is exact.
"""

import itertools
import json
import math
import time

import numpy as np

from qmemcheck.adversary import IncrementalAttack, SubstituteCodeword
from qmemcheck.analysis import p_multi, verify_lemma2, verify_swap_oracle
from qmemcheck.checker import (
    PublicMemory,
    complexity_report,
    new_checker,
    required_k,
    retrieve,
    stated_complexity,
    store,
)
from qmemcheck.code import MAX_HADAMARD_N, HadamardCode
from qmemcheck.harness import ExperimentConfig, OpSpec, canonical_json, run_experiment


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {verdict} [{detail}]")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    report = verify_swap_oracle()  # m in {2,...,32}, 200 pairs each, 1e-10
    elapsed = time.perf_counter() - t0
    ok = (
        report.passed
        and report.samples == 1000
        and report.empirical is not None
        and report.empirical <= 1e-10
        and elapsed < 5.0
    )
    _report(
        1,
        "oracle equivalence",
        ok,
        f"max |analytic - statevector| = {report.empirical:.2e} over "
        f"{report.samples} pairs, {elapsed:.1f}s (budget 5s)",
    )


def test_criterion_2_detection_rate():
    t0 = time.perf_counter()
    k = required_k(0.01, 0.5)
    cfg = ExperimentConfig(
        n=4, k=7, attack=SubstituteCodeword(), trials=100_000, seed=20260817
    )
    agg = run_experiment(cfg).aggregates
    elapsed = time.perf_counter() - t0

    buggy = agg["rates"]["buggy"]
    exact = 1 - 0.5**7  # distinct codewords here are exactly orthogonal
    sigma = math.sqrt(exact * (1 - exact) / cfg.trials)
    floor = exact - 4 * sigma
    loose_floor = 1 - 0.75**7
    bound = next(b for b in agg["bounds"] if b["name"] == "all_accept")
    ok = (
        k == 7
        and buggy >= floor
        and buggy >= loose_floor
        and bound["passed"]
        and elapsed < 30.0
    )
    _report(
        2,
        "substitution detection",
        ok,
        f"required_k={k}, buggy rate {buggy:.5f} over {cfg.trials} trials vs "
        f"exact-orthogonality rate {exact:.5f} (-4 sigma floor {floor:.5f}) "
        f"and loose floor {loose_floor:.5f}, {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_3_single_step_dominance():
    t0 = time.perf_counter()
    report = verify_lemma2(grid=20, t_max=4)
    cfg = ExperimentConfig(
        n=3,
        k=1,
        attack=IncrementalAttack(deltas=(0.25, 0.25)),
        trials=100_000,
        seed=31415,
    )
    agg = run_experiment(cfg).aggregates
    elapsed = time.perf_counter() - t0

    all_accept = agg["sessions"]["all_accept"] / cfg.trials
    target = p_multi((0.25, 0.25))  # 0.390625
    sigma = math.sqrt(target * (1 - target) / cfg.trials)
    ok = (
        report.passed
        and report.details["violations"] == 0
        and report.samples == 12_649
        and abs(all_accept - target) <= 4 * sigma
        and elapsed < 60.0
    )
    _report(
        3,
        "single-step dominance",
        ok,
        f"{report.samples} schedules, {report.details['violations']} violations; "
        f"two-step all-accept {all_accept:.5f} vs {target} "
        f"(+-{4 * sigma:.5f}), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_4_perfect_completeness():
    script = (
        OpSpec(op="store"),
        OpSpec(op="retrieve"),
        OpSpec(op="retrieve"),
        OpSpec(op="store"),
        OpSpec(op="retrieve", index="cycle"),
        OpSpec(op="store"),
        OpSpec(op="retrieve"),
        OpSpec(op="retrieve"),
    )
    cfg = ExperimentConfig(n=8, script=script, trials=10_000, seed=8)
    agg = run_experiment(cfg).aggregates
    ok = (
        agg["rates"]["correctness"] == 1.0
        and agg["rates"]["buggy"] == 0.0
        and agg["rates"]["false_buggy"] == 0.0
        and agg["counts"]["answers_total"] == 50_000
    )
    _report(
        4,
        "perfect completeness",
        ok,
        f"{cfg.trials} honest mixed-script sessions, "
        f"correctness {agg['rates']['correctness']}, "
        f"buggy {agg['rates']['buggy']} (both must be exact)",
    )


def _decode_success_count(corrupted: np.ndarray, e: int, true_bit: int) -> int:
    """How many of the m equally likely mask choices decode correctly.

    Mirrors the decoder read-for-read: position a and position a xor e,
    answer their parity.
    """
    m = corrupted.size
    masks = np.arange(m)
    answers = corrupted[masks] ^ corrupted[masks ^ e]
    return int((answers == true_bit).sum())


def test_criterion_5_local_decoder_contract():
    t0 = time.perf_counter()
    worst = 1.0
    classes_checked = 0
    ok = True
    detail_fail = ""

    for n in range(1, 9):
        code = HadamardCode(n)
        m = code.params.m
        w_max = int(code.params.delta_dec * m)
        rng = np.random.default_rng(n)
        msg = rng.integers(0, 2, size=n).astype(np.uint8)
        codeword = code.encode(msg)

        for i in range(n):
            e = code.unit_mask(i)
            # the m positions split into m/2 pairs {a, a^e}; a decode fails
            # iff its pair has exactly one corrupted endpoint, so success
            # depends only on (x, y) = (singly hit pairs, doubly hit pairs)
            reps = np.arange(m)[(np.arange(m) & e) == 0]
            for y in range(w_max // 2 + 1):
                for x in range(w_max - 2 * y + 1):
                    if x + y > reps.size:
                        continue
                    pattern = np.zeros(m, dtype=np.uint8)
                    for a in reps[:y]:
                        pattern[a] = pattern[a ^ e] = 1
                    for a in reps[y : y + x]:
                        pattern[a] = 1
                    assert int(pattern.sum()) == x + 2 * y <= w_max

                    successes = _decode_success_count(
                        codeword ^ pattern, e, int(msg[i])
                    )
                    classes_checked += 1
                    rate = successes / m
                    worst = min(worst, rate)
                    if successes != m - 2 * x or rate < 0.75:
                        ok = False
                        detail_fail = (
                            f" first failure at n={n} bit {i} class (x={x}, y={y}): "
                            f"rate {rate}"
                        )

    # independent cross-check at small sizes: every literal pattern, not
    # just one representative per class
    literal_patterns = 0
    for n in (3, 4, 5):
        code = HadamardCode(n)
        m = code.params.m
        w_max = int(code.params.delta_dec * m)
        msg = np.array([1] * ((n + 1) // 2) + [0] * (n // 2), dtype=np.uint8)
        codeword = code.encode(msg)
        units = [code.unit_mask(i) for i in range(n)]
        for w in range(w_max + 1):
            for positions in itertools.combinations(range(m), w):
                corrupted = codeword.copy()
                corrupted[list(positions)] ^= 1
                literal_patterns += 1
                for i, e in enumerate(units):
                    if _decode_success_count(corrupted, e, int(msg[i])) * 4 < 3 * m:
                        ok = False
                        detail_fail = f" literal pattern {positions} fails at n={n} bit {i}"

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(
        5,
        "local decoder contract",
        ok,
        f"{classes_checked} corruption classes (n<=8, every target bit) plus "
        f"{literal_patterns} literal patterns (n<=5), worst success rate "
        f"{worst} >= 0.75, {elapsed:.1f}s (budget 60s){detail_fail}",
    )


def test_criterion_6_complexity_accounting():
    agg = run_experiment(ExperimentConfig(n=8, k=7, trials=1, seed=0)).aggregates
    ref_ok = agg["complexity"] == {"s_qubits": 56, "t_qubits_per_retrieve": 114}

    # the stated cost must be what the library's meters count on one store and one
    # retrieve, and follow k*log2(m) and 2k*log2(m) + q exactly as n, k vary
    sizes = [(n, k) for n in (1, 2, 3, 4, 6, 8, 10) for k in (1, 2, 7, 11)]
    sizes += [(MAX_HADAMARD_N, k) for k in (1, 7)]
    mismatches = []
    rng = np.random.default_rng(6)
    for n, k in sizes:
        code = HadamardCode(n)
        state = new_checker(code, epsilon=0.01, k=k)
        memory = PublicMemory()
        msg = rng.integers(0, 2, size=n).astype(np.uint8)
        store(state, memory, msg, rng)
        verdict = retrieve(state, memory, 0, rng)
        stated = stated_complexity(code, k)
        paper = (stated.s_qubits, stated.t_qubits_per_retrieve) == (k * n, 2 * k * n + 2)
        if verdict.is_buggy or complexity_report(state, memory) != stated or not paper:
            mismatches.append((n, k))

    ok = ref_ok and not mismatches
    _report(
        6,
        "complexity accounting",
        ok,
        f"n=8,k=7 run reports s={agg['complexity']['s_qubits']} qubits, "
        f"t={agg['complexity']['t_qubits_per_retrieve']} qubits/retrieve; "
        f"{len(sizes)} (n,k) pairs metered as stated, s=k*log2(m), t=2k*log2(m)+2 exactly"
        + (f"; mismatched at {mismatches}" if mismatches else ""),
    )


def test_criterion_7_determinism(tmp_path):
    cfg = ExperimentConfig(
        n=3,
        attack=SubstituteCodeword(),
        trials=500,
        seed=99,
        record_trials=True,
    )
    first = run_experiment(cfg)
    second = run_experiment(cfg)

    bytes_a = canonical_json(first.aggregates).encode()
    bytes_b = canonical_json(second.aggregates).encode()
    first.write_outputs(tmp_path / "a")
    second.write_outputs(tmp_path / "b")
    file_a = (tmp_path / "a" / "results.json").read_bytes()
    file_b = (tmp_path / "b" / "results.json").read_bytes()

    ok = (
        bytes_a == bytes_b
        and first.trial_verdicts == second.trial_verdicts
        and file_a == file_b
    )
    _report(
        7,
        "determinism",
        ok,
        f"two identical runs: aggregates byte-identical ({len(bytes_a)} bytes), "
        f"verdict streams identical ({len(first.trial_verdicts)} trials), "
        f"results.json files byte-identical",
    )


def test_results_are_valid_json_documents():
    """The acceptance document everything above rides on parses cleanly."""
    res = run_experiment(ExperimentConfig(n=3, trials=10, seed=0))
    doc = json.loads(res.results_json())
    assert set(doc) >= {"schema", "config", "aggregates"}
