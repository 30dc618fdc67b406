"""The benchmark's workloads, the CLI calls they make, and the exact values their outputs must hit.

Every simulate workload drives ``qmemcheck simulate --config C --seed S --out D``
at a fixed trial count, so the work per call is the same for every seed; the
seed changes only the random streams. ``verify-grid`` drives ``verify-lemma2``
and ``oracle-check``. The exact values are computed here from first
principles, never by calling qmemcheck, so a defect in the package cannot
agree with itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# required_k(epsilon=0.01, delta=1/2) for the Hadamard code; every simulate workload runs at it.
K = 7
SIGMAS = 4.0

MIXED_SCRIPT = [
    {"op": "store"},
    {"op": "retrieve"},
    {"op": "retrieve"},
    {"op": "store"},
    {"op": "retrieve", "index": "cycle"},
    {"op": "store"},
    {"op": "retrieve"},
    {"op": "retrieve"},
]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    config is the simulate config (None for verify-grid). swap_distance, when
    set, is the Hamming distance every SWAP test inside a retrieve must see;
    the traced run checks it.
    """

    name: str
    why: str
    config: dict | None = None
    grid: int = 0
    t_max: int = 0
    swap_distance: int | None = None
    reference: str = "session"
    docs: tuple[str, ...] = field(default=("results.json",))

    @property
    def m(self) -> int | None:
        return None if self.config is None else 1 << self.config["n"]

    @property
    def trials(self) -> int | None:
        return None if self.config is None else self.config["trials"]

    @property
    def honest(self) -> bool:
        """A simulate workload with no attack: no verification may ever reject."""
        return self.config is not None and "attack" not in self.config

    def calls(self, seed: int, config_path: str, out_dir: str) -> list[list[str]]:
        """The CLI argument lists one measured iteration runs, in order."""
        if self.config is not None:
            return [["simulate", "--config", config_path, "--seed", str(seed), "--out", out_dir]]
        return [
            ["verify-lemma2", "--grid", str(self.grid), "--t-max", str(self.t_max), "--out", out_dir],
            ["oracle-check", "--seed", str(seed), "--out", out_dir],
        ]

    def warmup_calls(self, seed: int, config_path: str, out_dir: str) -> list[list[str]]:
        """The smallest instance of the same calls: it pays every fixed per-run cost once."""
        if self.config is not None:
            return [self.calls(seed, config_path, out_dir)[0] + ["--trials", "1"]]
        return [
            ["verify-lemma2", "--grid", "1", "--t-max", "2", "--out", out_dir],
            ["oracle-check", "--sizes", "2", "--pairs", "1", "--seed", str(seed), "--out", out_dir],
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="substitute-n4",
            why="m=16 substitution, the detection-rate config: per-session overhead (seeding, RNG, object churn) is nearly all the time",
            config={"n": 4, "k": K, "attack": {"kind": "substitute", "target": "random"}, "trials": 1000},
        ),
        Workload(
            name="flipcount-n16",
            why="m=65,536 with 1,024 uniform flips per step over 3 steps: O(m) array work, copies and memory dominate",
            config={
                "n": 16,
                "k": K,
                "attack": {"kind": "flip_count", "bits_per_step": 1024, "policy": "uniform"},
                "steps": 3,
                "trials": 200,
            },
            swap_distance=1024,
            reference="array",
        ),
        Workload(
            name="honest-mixed-n8",
            why="honest 8-op store/retrieve script with record_trials: no rejects, so write and read paths run to completion",
            config={"n": 8, "script": MIXED_SCRIPT, "record_trials": True, "trials": 400},
        ),
        Workload(
            name="verify-grid",
            why="verify-lemma2 on a 36-point grid plus oracle-check: the only workload that loads analysis and the statevector oracle",
            grid=36,
            t_max=4,
            reference="python",
            docs=("lemma2.json", "oracle.json"),
        ),
    )
}


def p_single(frac: float) -> float:
    """Accept probability of one SWAP test at relative distance frac: 1 - 2f + 2f^2."""
    return 1.0 - 2.0 * frac + 2.0 * frac * frac


def _within(rate, exact: float, samples: int) -> bool:
    band = SIGMAS * math.sqrt(exact * (1.0 - exact) / samples)
    return rate is not None and abs(rate - exact) <= band


def check_document(workload: Workload, doc_name: str, doc: dict) -> list[str]:
    """Every exact-value check that applies to one output document; returns the problems found."""
    if doc_name == "lemma2.json":
        return _check_lemma2(workload, doc)
    if doc_name == "oracle.json":
        return _check_oracle(doc)
    return _check_simulate(workload, doc)


def _check_lemma2(workload: Workload, doc: dict) -> list[str]:
    problems = []
    expected = sum(math.comb(workload.grid + t, t) for t in range(1, workload.t_max + 1))
    if doc.get("samples") != expected:
        problems.append(f"lemma2: {doc.get('samples')} schedules enumerated, expected {expected}")
    if doc.get("details", {}).get("violations") != 0:
        problems.append(f"lemma2: {doc.get('details', {}).get('violations')} violations, expected 0")
    if doc.get("passed") is not True:
        problems.append("lemma2: report did not pass")
    return problems


def _check_oracle(doc: dict) -> list[str]:
    problems = []
    dev = doc.get("empirical")
    if not isinstance(dev, (int, float)) or not dev <= 1e-10:
        problems.append(f"oracle: max deviation {dev} exceeds 1e-10")
    if doc.get("passed") is not True:
        problems.append("oracle: report did not pass")
    return problems


def _check_simulate(workload: Workload, doc: dict) -> list[str]:
    problems = []
    agg = doc["aggregates"]
    trials = workload.trials
    qubits = workload.config["n"]  # log2 m for the Hadamard code
    expected_complexity = {"s_qubits": K * qubits, "t_qubits_per_retrieve": 2 * K * qubits + 2}
    if agg.get("trials") != trials:
        problems.append(f"trials {agg.get('trials')} != {trials}")
    if agg.get("complexity") != expected_complexity:
        problems.append(f"complexity {agg.get('complexity')} != {expected_complexity}")
    failed = [b["name"] for b in agg.get("bounds", []) if not b.get("passed")]
    if failed:
        problems.append(f"bounds failed: {failed}")

    if workload.name == "substitute-n4":
        exact = 1.0 - 0.5**K  # distinct Hadamard codewords are orthogonal fingerprints
        if not _within(agg["rates"]["buggy"], exact, trials):
            problems.append(f"buggy rate {agg['rates']['buggy']} not within 4 sigma of {exact}")
    elif workload.name == "flipcount-n16":
        flips = workload.config["attack"]["bits_per_step"]
        exact = p_single(flips / workload.m) ** K
        steps = agg["per_step_accept"]
        if len(steps) != workload.config["steps"] or steps[0]["reached"] != trials:
            problems.append(f"per-step entries {steps} do not cover {workload.config['steps']} steps")
        for entry in steps:
            if not _within(entry["rate"], exact, max(entry["reached"], 1)):
                problems.append(
                    f"step {entry['step']} accept rate {entry['rate']} over {entry['reached']} "
                    f"not within 4 sigma of {exact}"
                )
    elif workload.name == "honest-mixed-n8":
        answers = sum(1 for op in MIXED_SCRIPT if op["op"] == "retrieve") * trials
        exact = {
            "correctness": (agg["rates"]["correctness"], 1.0),
            "buggy": (agg["sessions"]["buggy"], 0),
            "false_buggy": (agg["sessions"]["false_buggy"], 0),
            "answers_total": (agg["counts"]["answers_total"], answers),
            "recorded trials": (len(doc.get("trial_verdicts", [])), trials),
        }
        problems += [f"{name} is {got}, expected exactly {want}" for name, (got, want) in exact.items() if got != want]
    return problems
