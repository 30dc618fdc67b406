"""Config-driven Monte Carlo experiment runner.

A run executes N independent checker sessions against a public memory under a
scheduled adversary, aggregates verdicts into rates, attaches the matching
analytic bounds, and emits structured results. Everything downstream of the
(config, seed) pair is deterministic: per-trial RNGs come from counter-mode
hashing of the master seed, and the JSON results document is byte-identical
across runs. Wall-clock facts live in a separate metadata sidecar so they
never break that guarantee.

The default session script is one store followed by alternating
(adversary step, retrieve) rounds; an explicit op list can replace it.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import io
import json
import platform
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .adversary import (
    SCHEDULES, AdversaryLog, AttackSchedule, ConfigError, FlipCount, IncrementalAttack, NoOpAttack,
    SubstituteCodeword, _is_bitstring, _is_int, _is_number, apply_step,
)
from .analysis import BoundReport, binomial_std_error, lemma1_bound, p_single
from .bits import as_bits, random_bits
from .checker import PublicMemory, complexity_report, new_checker, required_k, retrieve, store
from .code import MAX_HADAMARD_N, HadamardCode

RESULTS_SCHEMA = "qmemcheck.results.v1"

OP_KINDS = ("store", "attack", "retrieve")
INDEX_POLICIES = ("random", "cycle")


def _from_dict(cls, raw, path: str, **convert: Callable[[Any, str], Any]):
    """Build dataclass cls from a JSON object whose keys are its field names.

    Unknown keys and missing required keys are rejected; convert[key] maps a
    present value (given its path) before construction; errors the
    constructor raises are re-reported under path. path "" is the top level.
    """

    def at(key: str) -> str:
        return f"{path}.{key}" if path else key

    if not isinstance(raw, dict):
        raise ConfigError(path or "config", f"expected an object, got {type(raw).__name__}")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(path or "config", f"unknown keys {sorted(unknown)}")
    for f in fields(cls):
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(at(f.name), "missing required key")
    kwargs = {key: convert[key](value, at(key)) if key in convert else value for key, value in raw.items()}
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise (exc.under(path) if path else exc) from None


def _schedule_from_dict(raw, path: str) -> AttackSchedule:
    """An attack object: "kind" picks the schedule class, the other keys are its fields."""
    if not isinstance(raw, dict):
        raise ConfigError(path, f"expected an object, got {type(raw).__name__}")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in SCHEDULES:
        raise ConfigError(f"{path}.kind", f"unknown attack kind {kind!r}, expected one of {tuple(SCHEDULES)}")
    return _from_dict(SCHEDULES[kind], {key: v for key, v in raw.items() if key != "kind"}, path)


def _script_from_list(raw, path: str) -> tuple[OpSpec, ...] | None:
    if raw is None:
        return None
    if not isinstance(raw, list):
        raise ConfigError(path, f"expected a list, got {type(raw).__name__}")
    return tuple(_from_dict(OpSpec, op, f"{path}[{i}]") for i, op in enumerate(raw))


@dataclass(frozen=True)
class OpSpec:
    """One scripted operation: a store, an adversary step, or a retrieve.

    message applies to store ops only (None defers to the config-level
    message); index applies to retrieve ops only (None defers to the
    config-level retrieve_index).
    """

    op: str
    message: str | None = None
    index: int | str | None = None

    def __post_init__(self) -> None:
        if self.op not in OP_KINDS:
            raise ConfigError("op", f"unknown op {self.op!r}, expected one of {OP_KINDS}")
        if self.message is not None and not isinstance(self.message, str):
            raise ConfigError("message", "expected a string")
        if self.index is not None and not (_is_int(self.index) or self.index in INDEX_POLICIES):
            raise ConfigError("index", f"expected an integer or one of {INDEX_POLICIES}")
        if self.op != "store" and self.message is not None:
            raise ConfigError("message", f"message only applies to store ops, not {self.op!r}")
        if self.op != "retrieve" and self.index is not None:
            raise ConfigError("index", f"index only applies to retrieve ops, not {self.op!r}")

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self) if getattr(self, f.name) is not None}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; fully validated on construction.

    k=None means "derive from epsilon and the code distance". script=None
    means the default script: one store, then `steps` rounds of
    (attack, retrieve); steps defaults to the schedule's intrinsic step count
    (1 for schedules without one). The HadamardCode is built once per
    instance, on first use, and shared by every trial of its run.
    """

    n: int
    delta_dec: float = 0.125
    epsilon: float = 0.01
    k: int | None = None
    attack: AttackSchedule = field(default_factory=NoOpAttack)
    steps: int | None = None
    retrieve_index: int | str = "random"
    message: str = "random"
    script: tuple[OpSpec, ...] | None = None
    trials: int = 1000
    seed: int = 0
    record_trials: bool = False
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if not _is_int(self.n) or not 1 <= self.n <= MAX_HADAMARD_N:
            raise ConfigError("n", f"expected an integer in [1, {MAX_HADAMARD_N}], got {self.n!r}")
        if not _is_number(self.delta_dec) or not 0.0 <= self.delta_dec < 0.25:
            raise ConfigError("delta_dec", f"expected a number in [0, 0.25), got {self.delta_dec!r}")
        if not _is_number(self.epsilon) or not 0.0 < self.epsilon < 0.5:
            raise ConfigError("epsilon", f"expected a number in (0, 1/2), got {self.epsilon!r}")
        if self.k is not None and (not _is_int(self.k) or self.k < 1):
            raise ConfigError("k", f"expected an integer >= 1 or null, got {self.k!r}")
        if self.steps is not None and (not _is_int(self.steps) or self.steps < 0):
            raise ConfigError("steps", f"expected an integer >= 0 or null, got {self.steps!r}")
        if not _is_int(self.trials) or self.trials < 1:
            raise ConfigError("trials", f"expected an integer >= 1, got {self.trials!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ConfigError("seed", f"expected an integer in [0, 2^64), got {self.seed!r}")
        if not isinstance(self.record_trials, bool):
            raise ConfigError("record_trials", f"expected a boolean, got {self.record_trials!r}")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError("out_dir", f"expected a string or null, got {self.out_dir!r}")

        if not (self.retrieve_index in INDEX_POLICIES or _is_int(self.retrieve_index)):
            raise ConfigError(
                "retrieve_index", f"expected an integer or one of {INDEX_POLICIES}, got {self.retrieve_index!r}"
            )
        if _is_int(self.retrieve_index) and not 0 <= self.retrieve_index < self.n:
            raise ConfigError("retrieve_index", f"index {self.retrieve_index} out of range [0, {self.n})")

        self._check_message(self.message, "message")

        if not isinstance(self.attack, AttackSchedule):
            raise ConfigError("attack", f"expected an attack schedule, got {self.attack!r}")
        try:
            self.attack.check(self.code.params, self.message)
        except ConfigError as exc:
            raise exc.under("attack") from None

        self._check_script(self.build_script())

    def _check_message(self, message, path: str) -> None:
        if message == "random":
            return
        if not _is_bitstring(message) or len(message) != self.n:
            raise ConfigError(path, f"expected 'random' or a {self.n}-bit string, got {message!r}")

    @cached_property
    def code(self) -> HadamardCode:
        return HadamardCode(self.n, delta_dec=self.delta_dec)

    def _check_script(self, script: tuple[OpSpec, ...]) -> None:
        where = "script" if self.script is not None else "steps"
        seen_store = False
        attack_ops = 0
        # the last store with an explicit message, until an attack op checks it
        pending_store: int | None = None
        for i, op in enumerate(script):
            if op.op == "store":
                seen_store = True
                pending_store = None
                if op.message is not None:
                    self._check_message(op.message, f"script[{i}].message")
                    pending_store = i
            elif not seen_store:
                raise ConfigError(f"script[{i}]", f"{op.op} before the first store")
            elif op.op == "attack":
                attack_ops += 1
                if pending_store is not None:
                    try:
                        self.attack.check(self.code.params, script[pending_store].message)
                    except ConfigError as exc:
                        raise ConfigError(f"script[{pending_store}].message", exc.message) from None
                    pending_store = None
            elif op.index is not None and _is_int(op.index) and not 0 <= op.index < self.n:
                raise ConfigError(f"script[{i}].index", f"index {op.index} out of range [0, {self.n})")
        intrinsic = self.attack.intrinsic_steps
        if intrinsic is not None and attack_ops > intrinsic:
            raise ConfigError(
                where, f"schedule provides {intrinsic} attack step(s) but the script uses {attack_ops}"
            )

    def build_script(self) -> tuple[OpSpec, ...]:
        """The op sequence a session runs: explicit script, or the default shape."""
        if self.script is not None:
            return self.script
        steps = (self.attack.intrinsic_steps or 1) if self.steps is None else self.steps
        return (OpSpec(op="store"),) + (OpSpec(op="attack"), OpSpec(op="retrieve")) * steps

    def resolved_k(self) -> int:
        return self.k if self.k is not None else required_k(self.epsilon, self.code.params.delta)

    def to_dict(self) -> dict[str, Any]:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["k"] = "auto" if self.k is None else self.k
        out["attack"] = self.attack.to_dict()
        out["script"] = None if self.script is None else [op.to_dict() for op in self.script]
        return out

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        return _from_dict(
            cls, raw, "", k=lambda k, path: None if k in (None, "auto") else k,
            attack=_schedule_from_dict, script=_script_from_list,
        )

    def with_overrides(
        self,
        seed: int | None = None,
        trials: int | None = None,
        out_dir: str | None = None,
    ) -> "ExperimentConfig":
        """Copy with seed/trials/out_dir replaced where given (CLI and environment overrides).

        Returns self when every given value equals the current one (same type
        and value), so an override that changes nothing validates nothing twice.
        """
        given = {"seed": seed, "trials": trials, "out_dir": out_dir}
        changes = {
            key: value
            for key, value in given.items()
            if value is not None
            and (type(value) is not type(getattr(self, key)) or value != getattr(self, key))
        }
        return replace(self, **changes) if changes else self


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Per-trial RNG seed: counter-mode hash of (master seed, trial index).

    SHA-256 over a domain tag plus both values as 8-byte little-endian words,
    truncated to 128 bits. Distinct indices hash distinct inputs, so seeds are
    (cryptographically) collision-free within a run, and the derivation is
    platform-independent.
    """
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master seed must be in [0, 2^64), got {master_seed}")
    if not 0 <= trial_index < 2**64:
        raise ValueError(f"trial index must be in [0, 2^64), got {trial_index}")
    digest = hashlib.sha256(
        b"qmemcheck-trial"
        + master_seed.to_bytes(8, "little")
        + trial_index.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest[:16], "little")


@dataclass
class _Tally:
    """Run-wide session counters; _run_trial adds each session into them.

    A session stops at its first reject, so the retrieves it reached and
    accepted are prefixes of the script's retrieves. verdicts is None unless
    the run records per-trial verdict streams.
    """

    reached: list[int]
    accepted: list[int]
    buggy: int = 0
    false_buggy: int = 0
    correct: int = 0
    verdicts: list[list[str]] | None = None


def _run_trial(
    config: ExperimentConfig, k: int, script: Sequence[OpSpec], rng: np.random.Generator, tally: _Tally
) -> None:
    code = config.code
    state = new_checker(code, config.epsilon, k)
    memory = PublicMemory()
    log: AdversaryLog | None = None
    current_msg: np.ndarray | None = None
    attack_step = 0
    retrieve_pos = 0
    cycle = 0
    verdicts: list[str] | None = None if tally.verdicts is None else []

    for op in script:
        if op.op == "attack":
            apply_step(config.attack.resolve(current_msg, rng), attack_step, memory, code, log, rng)
            attack_step += 1
            continue
        if op.op == "store":
            msg_spec = op.message if op.message is not None else config.message
            msg = random_bits(config.n, rng) if msg_spec == "random" else as_bits(msg_spec)
            verdict = store(state, memory, msg, rng)
        else:
            idx = op.index if op.index is not None else config.retrieve_index
            if idx == "random":
                idx = int(rng.integers(config.n))
            elif idx == "cycle":
                idx, cycle = cycle % config.n, cycle + 1
            tally.reached[retrieve_pos] += 1
            verdict = retrieve(state, memory, idx, rng)
        if verdict.is_buggy:
            tally.buggy += 1
            # "false buggy" means rejecting a memory that matches the stored
            # codeword; the adversary-log baseline is that codeword verbatim
            tally.false_buggy += log is not None and np.array_equal(memory.bits, log.baseline)
            if verdicts is not None:
                verdicts.append(f"{op.op}:buggy")
            break
        if op.op == "store":
            current_msg = msg
            log = AdversaryLog(memory.bits)
        else:
            tally.accepted[retrieve_pos] += 1
            retrieve_pos += 1
            tally.correct += int(verdict.bit == int(current_msg[idx]))
        if verdicts is not None:
            verdicts.append(f"{op.op}:{verdict.bit}")
    if verdicts is not None:
        tally.verdicts.append(verdicts)


def _probe_complexity(config: ExperimentConfig, k: int) -> dict[str, int]:
    """Resource counts measured on a live honest session, not recomputed formulas."""
    rng = np.random.default_rng(derive_trial_seed(config.seed, config.trials))
    state = new_checker(config.code, config.epsilon, k)
    memory = PublicMemory()
    store(state, memory, "0" * config.n, rng)
    retrieve(state, memory, 0, rng)
    report = complexity_report(state, memory)
    return {"s_qubits": report.s_qubits, "t_qubits_per_retrieve": report.t_qubits_per_retrieve}


def _rate_check(
    name: str, analytic: dict[str, float], expected: float, empirical: float | None, samples: int,
    details: dict[str, Any], floor: float | None = None,
) -> BoundReport:
    """Monte Carlo rate against its analytic value, 4 sigma wide.

    Sigma is computed from the analytic rate (expected), so a prediction of
    exactly 0 or 1 demands an exact empirical match. With floor the check is
    one-sided (empirical >= floor - tolerance); without, two-sided around
    expected. A rate that was never sampled (None) fails.
    """
    tol = 4.0 * float(np.sqrt(expected * (1.0 - expected) / max(samples, 1)))
    passed = empirical is not None and (
        abs(empirical - expected) <= tol if floor is None else empirical >= floor - tol
    )
    return BoundReport(
        name=name, analytic=analytic, empirical=empirical, samples=samples,
        std_error=tol / 4.0, tolerance=tol, passed=passed, details=details,
    )


def _attach_bounds(config: ExperimentConfig, aggregates: dict[str, Any]) -> list[BoundReport]:
    """Analytic predictions matching the default script, checked by _rate_check.

    Explicit scripts get no attack-shaped bounds; their structure is the
    caller's, not the default one these formulas describe.
    """
    k = aggregates["k"]
    params = config.code.params
    n_trials = config.trials
    rates = aggregates["rates"]
    reports: list[BoundReport] = []

    if isinstance(config.attack, NoOpAttack):
        correctness = rates["correctness"]
        ok = correctness == 1.0 and rates["buggy"] == 0.0 and rates["false_buggy"] == 0.0
        reports.append(
            BoundReport(
                name="honest_completeness",
                analytic={"correctness": 1.0, "buggy": 0.0},
                empirical=correctness,
                samples=n_trials,
                std_error=0.0,
                tolerance=0.0,
                passed=ok,
                details={"buggy_rate": rates["buggy"], "false_buggy_rate": rates["false_buggy"]},
            )
        )

    if config.script is not None:
        return reports

    # steps 0 runs no substitution, so there is nothing to detect
    if isinstance(config.attack, SubstituteCodeword) and config.steps != 0:
        bound_accept = lemma1_bound(params.delta, k)
        # distinct codewords here sit at exactly half distance: inner product 0
        exact_accept = 0.5**k
        # a fixed target meets a random message with probability 2^-n, and
        # then the "substitution" rewrites the stored codeword unchanged
        distinct = 1.0
        if config.message == "random" and config.attack.target != "random":
            distinct = 1.0 - 0.5**config.n
        detect_floor = distinct * (1.0 - bound_accept)
        detect_exact = distinct * (1.0 - exact_accept)
        reports.append(
            _rate_check(
                "substitution_detection",
                {"detect_lower_bound": detect_floor, "detect_exact_orthogonal": detect_exact},
                detect_exact, rates["buggy"], n_trials,
                {"k": k, "all_accept_bound": bound_accept},
                floor=detect_floor,
            )
        )

    if isinstance(config.attack, IncrementalAttack):
        m = params.m
        counts = config.attack.step_flip_counts(m)
        steps = config.steps if config.steps is not None else len(counts)
        used = counts[:steps]
        # flips land on whole bits, so the analytic per-step accept uses the
        # rounded flip fractions actually applied, not the requested deltas
        per_step = [p_single(c / m) ** k for c in used]
        analytic_all = float(np.prod(per_step)) if per_step else 1.0
        reports.append(
            _rate_check(
                "incremental_all_accept", {"all_accept": analytic_all}, analytic_all,
                rates["all_accept"], n_trials,
                {"k": k, "flip_counts": list(used), "per_step_accept": per_step},
            )
        )

    if isinstance(config.attack, FlipCount) and aggregates["per_step_accept"]:
        first = aggregates["per_step_accept"][0]
        d = min(config.attack.bits_per_step, params.m) / params.m
        analytic_first = p_single(d) ** k
        reports.append(
            _rate_check(
                "first_step_accept", {"accept": analytic_first}, analytic_first,
                first["rate"], first["reached"], {"k": k, "flip_fraction": d},
            )
        )

    return reports


@dataclass
class ExperimentResult:
    """Aggregated run outcome plus the exact config that produced it.

    aggregates (and the results JSON built from them) are a pure function of
    (config, seed); run_meta holds the wall-clock and platform facts and is
    written to its own sidecar file.
    """

    config: ExperimentConfig
    aggregates: dict[str, Any]
    trial_verdicts: list[list[str]] | None
    run_meta: dict[str, Any]

    def result_document(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "schema": RESULTS_SCHEMA,
            "config": self.config.to_dict(),
            "aggregates": self.aggregates,
        }
        if self.trial_verdicts is not None:
            doc["trial_verdicts"] = self.trial_verdicts
        return doc

    def aggregates_json(self) -> str:
        return canonical_json(self.aggregates)

    def results_json(self) -> str:
        return canonical_json(self.result_document())

    def render_csv(self) -> str:
        """One flat table: metric, step, numerator, denominator, value."""
        agg = self.aggregates
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["metric", "step", "numerator", "denominator", "value"])
        counts = agg["counts"]
        sessions = agg["sessions"]
        n_trials = agg["trials"]
        writer.writerow(
            ["correctness", "", counts["answers_correct"], counts["answers_total"], agg["rates"]["correctness"]]
        )
        for name, num in (
            ("buggy", sessions["buggy"]),
            ("false_buggy", sessions["false_buggy"]),
            ("all_accept", sessions["all_accept"]),
        ):
            writer.writerow([name, "", num, n_trials, agg["rates"][name]])
        for entry in agg["per_step_accept"]:
            writer.writerow(
                ["step_accept", entry["step"], entry["accepted"], entry["reached"],
                 "" if entry["rate"] is None else entry["rate"]]
            )
        writer.writerow(["s_qubits", "", "", "", agg["complexity"]["s_qubits"]])
        writer.writerow(["t_qubits_per_retrieve", "", "", "", agg["complexity"]["t_qubits_per_retrieve"]])
        for bound in agg["bounds"]:
            writer.writerow(
                ["bound:" + bound["name"], "", "", "", "pass" if bound["passed"] else "FAIL"]
            )
        return buf.getvalue()

    def write_outputs(self, out_dir) -> dict[str, Path]:
        """Write results.json, results.csv, and the run_meta.json sidecar."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "json": out / "results.json",
            "csv": out / "results.csv",
            "meta": out / "run_meta.json",
        }
        paths["json"].write_text(self.results_json())
        paths["csv"].write_text(self.render_csv())
        paths["meta"].write_text(canonical_json(self.run_meta))
        return paths


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift, no NaN, one trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), allow_nan=False) + "\n"


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute config.trials independent sessions and aggregate their verdicts.

    Trials are isolated: each gets its own memory, checker state, adversary
    log, and RNG seeded by derive_trial_seed, so the aggregate is independent
    of execution order. A session ends at its first "buggy" verdict.
    """
    started = datetime.datetime.now(datetime.timezone.utc)
    t0 = time.monotonic()

    k = config.resolved_k()
    script = config.build_script()
    n_retrieves = sum(op.op == "retrieve" for op in script)
    tally = _Tally(
        reached=[0] * n_retrieves, accepted=[0] * n_retrieves, verdicts=[] if config.record_trials else None
    )
    for i in range(config.trials):
        rng = np.random.default_rng(derive_trial_seed(config.seed, i))
        _run_trial(config, k, script, rng, tally)

    n_trials = config.trials
    buggy = tally.buggy
    # an accepted retrieve answers; every session without a reject accepts all
    answers_total = sum(tally.accepted)
    all_accept = n_trials - buggy
    per_step = [
        {"step": pos, "reached": reached, "accepted": accepted, "rate": accepted / reached if reached else None}
        for pos, (reached, accepted) in enumerate(zip(tally.reached, tally.accepted))
    ]
    aggregates: dict[str, Any] = {
        "trials": n_trials,
        "k": k,
        "sessions": {
            "buggy": buggy, "clean": all_accept, "false_buggy": tally.false_buggy, "all_accept": all_accept,
        },
        "counts": {"answers_total": answers_total, "answers_correct": tally.correct},
        "rates": {
            # no answers means no answer was ever wrong; answers_total disambiguates
            "correctness": (tally.correct / answers_total) if answers_total else 1.0,
            "buggy": buggy / n_trials,
            "false_buggy": tally.false_buggy / n_trials,
            "all_accept": all_accept / n_trials,
        },
        "std_errors": {
            "buggy": binomial_std_error(buggy / n_trials, n_trials),
            "all_accept": binomial_std_error(all_accept / n_trials, n_trials),
        },
        "per_step_accept": per_step,
        "complexity": _probe_complexity(config, k),
    }
    aggregates["bounds"] = [r.to_dict() for r in _attach_bounds(config, aggregates)]

    run_meta = {
        "started_utc": started.isoformat(),
        "elapsed_seconds": time.monotonic() - t0,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
    }
    result = ExperimentResult(
        config=config, aggregates=aggregates, trial_verdicts=tally.verdicts, run_meta=run_meta
    )
    if config.out_dir is not None:
        result.write_outputs(config.out_dir)
    return result

