"""Config-driven Monte Carlo experiment runner.

A run executes N independent checker sessions against a public memory under a
scheduled adversary, aggregates verdicts into rates, attaches the matching
analytic bounds, and returns structured results. Everything downstream of the
(config, seed) pair is deterministic: every draw is a counter-based hash of
(master seed, trial, op, slot), and the JSON results document is byte-identical
across runs, wherever it is written. Wall-clock facts live in a separate
metadata sidecar so they never break that guarantee.

The default session script is one store followed by alternating
(adversary step, retrieve) rounds; an explicit op list can replace it.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import math
import os
import platform
import stat
import time
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .adversary import (
    SCHEDULES, AttackSchedule, ConfigError, NoOpAttack, _field_table, _is_bitstring, _is_int, _is_number,
)
from .analysis import BoundReport, binomial_std_error, binomial_tail, lemma1_bound, required_k, stated_complexity
from .bits import as_bits
from .checker import CheckerState, PublicMemory, complexity_report, retrieve, store
from .code import MAX_HADAMARD_N, HadamardCode
from .engine import Tally, run_sessions
from .fingerprint import p_accept

RESULTS_SCHEMA = "qmemcheck.results.v4"

# Fail-fast caps. The engine draws one uniform per verification whatever k is,
# but a library verification (checker.store/retrieve, as in the complexity
# check every run makes) draws k. The default script holds 2*steps + 1 ops,
# whether steps is given or is the schedule's length, so larger values only
# exhaust memory or time.
MAX_K = 10**6
MAX_STEPS = 10**4
# Trial indices are uint64 counters (engine.run_sessions), so 2^64 trials at most.
MAX_TRIALS = 2**64
# A record_trials run keeps trials * len(script) verdicts as one int8 code
# each. Its results.json text, 10 to 14 bytes per verdict, built once,
# copied once by a join and once more as the encoded bytes written, sets the
# peak: at this cap an 8-op store/retrieve script at n=8 renders 121 MB of
# text, and a `simulate --out` call peaks at 289 MiB RSS.
MAX_RECORDED_VERDICTS = 10**7

# Phi(-4): the tail mass a 4-sigma band leaves on one side of a normal rate
TAIL_ALPHA = 0.5 * math.erfc(4.0 / math.sqrt(2.0))

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
    names, required = _field_table(cls)
    unknown = raw.keys() - names
    if unknown:
        raise ConfigError(path or "config", f"unknown keys {sorted(unknown)}")
    for name in required:
        if name not in raw:
            raise ConfigError(at(name), "missing required key")
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
        return {name: value for name in _field_table(OpSpec)[0] if (value := getattr(self, name)) is not None}


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

    def __post_init__(self) -> None:
        if not _is_int(self.n) or not 1 <= self.n <= MAX_HADAMARD_N:
            raise ConfigError("n", f"expected an integer in [1, {MAX_HADAMARD_N}], got {self.n!r}")
        if not _is_number(self.epsilon) or not 0.0 < self.epsilon < 0.5:
            raise ConfigError("epsilon", f"expected a number in (0, 1/2), got {self.epsilon!r}")
        if self.k is not None and (not _is_int(self.k) or not 1 <= self.k <= MAX_K):
            raise ConfigError("k", f"expected an integer in [1, {MAX_K}] or null, got {self.k!r}")
        if self.steps is not None and (not _is_int(self.steps) or not 0 <= self.steps <= MAX_STEPS):
            raise ConfigError("steps", f"expected an integer in [0, {MAX_STEPS}] or null, got {self.steps!r}")
        if self.steps is not None and self.script is not None:
            raise ConfigError("steps", "steps shapes the default script only; an explicit script sets its own ops")
        if not _is_int(self.trials) or not 1 <= self.trials <= MAX_TRIALS:
            raise ConfigError("trials", f"expected an integer in [1, 2^64], got {self.trials!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ConfigError("seed", f"expected an integer in [0, 2^64), got {self.seed!r}")
        if not isinstance(self.record_trials, bool):
            raise ConfigError("record_trials", f"expected a boolean, got {self.record_trials!r}")

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
            self.attack.check(self.code, self.message)
        except ConfigError as exc:
            raise exc.under("attack") from None

        ops = len(self.ops)  # resolves the script, so a bad one fails here
        if self.record_trials and self.trials * ops > MAX_RECORDED_VERDICTS:
            raise ConfigError("trials", f"record_trials keeps at most {MAX_RECORDED_VERDICTS} verdicts, "
                              f"got {self.trials} trials of {ops} ops")

    def _check_message(self, message, path: str) -> None:
        if message == "random":
            return
        if not _is_bitstring(message) or len(message) != self.n:
            raise ConfigError(path, f"expected 'random' or a {self.n}-bit string, got {message!r}")

    @cached_property
    def code(self) -> HadamardCode:
        return HadamardCode(self.n)

    @cached_property
    def ops(self) -> tuple[tuple[str, int, Any], ...]:
        """The script, validated and resolved in one walk: one (kind, step, value)
        per op. step is the op's position among the script's ops of its kind.
        value is a store's message as bits, parsed once per distinct string, or
        a retrieve's index, with the config-level default applied and a cycle
        index reduced mod n; it is None where the op draws it. At an attack op
        it is the step's law {d: w}, the schedule's step_distances for the
        config-level message, which the draw plan and the bounds both read."""
        script = self.build_script()
        if not script:
            raise ConfigError("script", "expected at least one op")
        parse = cache(lambda spec: as_bits(spec, name="message"))
        steps = dict.fromkeys(OP_KINDS, 0)
        ops, cycle = [], 0
        # the last store with an explicit message, until an attack op checks it
        pending: int | None = None
        for i, op in enumerate(script):
            value = None
            if op.op == "store":
                pending = None
                if op.message is not None:
                    self._check_message(op.message, f"script[{i}].message")
                    pending = i
                spec = self.message if op.message is None else op.message
                value = None if spec == "random" else parse(spec)
            elif not steps["store"]:
                raise ConfigError(f"script[{i}]", f"{op.op} before the first store")
            elif op.op == "attack":
                if pending is not None:
                    try:
                        self.attack.check(self.code, script[pending].message)
                    except ConfigError as exc:
                        raise ConfigError(f"script[{pending}].message", exc.message) from None
                    pending = None
            else:
                value = self.retrieve_index if op.index is None else op.index
                if value == "random":
                    value = None
                elif value == "cycle":
                    value, cycle = cycle % self.n, cycle + 1
                elif not 0 <= value < self.n:
                    raise ConfigError(f"script[{i}].index", f"index {value} out of range [0, {self.n})")
            ops.append((op.op, steps[op.op], value))
            steps[op.op] += 1
        intrinsic = self.attack.intrinsic_steps
        if intrinsic is not None and steps["attack"] > intrinsic:
            raise ConfigError("script" if self.script is not None else "steps",
                              f"schedule provides {intrinsic} attack step(s) but the script uses {steps['attack']}")
        # only now: a step past an incremental schedule's deltas has no law
        law = lambda step: self.attack.step_distances(self.code, self.message, step)
        return tuple((kind, step, law(step) if kind == "attack" else value) for kind, step, value in ops)

    def build_script(self) -> tuple[OpSpec, ...]:
        """The op sequence a session runs: explicit script, or the default shape.
        Without steps, the default runs one step per delta of an incremental
        schedule, at most MAX_STEPS of them."""
        if self.script is not None:
            return self.script
        steps = (self.attack.intrinsic_steps or 1) if self.steps is None else self.steps
        if steps > MAX_STEPS:
            raise ConfigError("attack.deltas", f"a default script runs at most {MAX_STEPS} steps, got {steps}")
        return (OpSpec(op="store"),) + (OpSpec(op="attack"), OpSpec(op="retrieve")) * steps

    def resolved_k(self) -> int:
        return self.k if self.k is not None else required_k(self.epsilon, self.code.params.delta)

    def to_dict(self) -> dict[str, Any]:
        out = {name: getattr(self, name) for name in _field_table(ExperimentConfig)[0]}
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


def _probe_complexity(config: ExperimentConfig) -> dict[str, int]:
    """The protocol's stated cost (analysis.stated_complexity), checked against the
    traffic that a live honest session, one store and one retrieve, is metered with."""
    rng = np.random.default_rng(config.seed)  # an honest session's counts do not depend on it
    state = CheckerState(config.code, config.resolved_k())
    memory = PublicMemory()
    store(state, memory, "0" * config.n, rng)
    retrieve(state, memory, 0, rng)
    stated, metered = stated_complexity(config.code, state.k), complexity_report(state, memory)
    if metered != stated:
        raise RuntimeError(f"stated complexity {stated} differs from the metered {metered}")
    return {"s_qubits": stated.s_qubits, "t_qubits_per_retrieve": stated.t_qubits_per_retrieve}


def _rate_check(
    name: str, analytic: dict[str, float], expected: float, count: int, samples: int, details: dict[str, Any],
) -> BoundReport:
    """count of samples against the exact rate expected: passes inside the 4 sigma
    band (sigma from expected), or while the exact binomial tail at count, on its
    side of the mean, is at least TAIL_ALPHA, since near 0 or 1 the band is far
    narrower than the tail. An exact rate of 0 or 1 demands an exact match."""
    empirical = count / samples
    sigma = binomial_std_error(expected, samples)
    tol = 4.0 * sigma
    passed = abs(empirical - expected) <= tol or (
        0.0 < expected < 1.0 and binomial_tail(count, samples, expected, stop=TAIL_ALPHA) >= TAIL_ALPHA
    )
    return BoundReport(
        name=name, analytic=analytic, empirical=empirical, samples=samples,
        std_error=sigma, tolerance=tol, passed=passed, details=details,
    )


def _attach_bounds(config: ExperimentConfig, aggregates: dict[str, Any]) -> list[BoundReport]:
    """Exact checks of the run's rates. Each attack op's distance distribution
    {d: w} is its value in config.ops. Runs with answers whose every attack op has
    the law {0: 1} (no attack op at all, too) get honest_completeness. On the
    default script (explicit scripts are shaped by the caller), each step's law
    gives its exact accept rate sum(w * p_accept(d/m, k)), checked on every
    reached step; their product is checked against all_accept."""
    k = aggregates["k"]
    rates = aggregates["rates"]
    reports: list[BoundReport] = []
    laws = [law for kind, _, law in config.ops if kind == "attack"]

    if all(law == {0: 1.0} for law in laws) and aggregates["counts"]["answers_total"]:
        ok = rates["correctness"] == 1.0 and rates["buggy"] == 0.0 and rates["false_buggy"] == 0.0
        reports.append(BoundReport(
            name="honest_completeness", analytic={"correctness": 1.0, "buggy": 0.0},
            empirical=rates["correctness"], samples=config.trials, std_error=0.0, tolerance=0.0, passed=ok,
            details={"buggy_rate": rates["buggy"], "false_buggy_rate": rates["false_buggy"]},
        ))

    if config.script is not None:
        return reports

    m, delta = config.code.params.m, config.code.params.delta
    per_step = []
    for entry, dist in zip(aggregates["per_step_accept"], laws):
        step = entry["step"]
        exact = sum(w * p_accept(d / m, k) for d, w in dist.items())
        per_step.append(exact)
        if not entry["reached"]:
            continue  # no session got here, so there is no evidence to check
        analytic = {"accept": exact}
        # Lemma 1 caps the accept rate where every distance lies in [delta*m, (1 - delta)*m]
        if all(delta * m <= d <= (1.0 - delta) * m for d in dist):
            analytic["lemma1_bound"] = lemma1_bound(delta, k)
        details = {"k": k, "distances": {str(d): w for d, w in sorted(dist.items())}}
        name = f"step_accept[{step}]"
        reports.append(_rate_check(name, analytic, exact, entry["accepted"], entry["reached"], details))
    all_accept = math.prod(per_step, start=1.0)
    details = {"k": k, "per_step_accept": per_step}
    sessions = aggregates["sessions"]["all_accept"]
    reports.append(_rate_check("all_accept", {"all_accept": all_accept}, all_accept, sessions, config.trials, details))
    return reports


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated run outcome plus the exact config that produced it.

    aggregates (and the results JSON built from them) are a pure function of
    (config, seed); run_meta holds the wall-clock and platform facts and is
    written to its own sidecar file. tally is the engine's record of the run,
    whose verdict codes give trial_verdicts. A result is read, not changed:
    its documents are rendered once and the text kept.
    """

    config: ExperimentConfig
    aggregates: dict[str, Any]
    tally: Tally
    run_meta: dict[str, Any]

    @property
    def trial_verdicts(self) -> list[list[str]] | None:
        """One verdict stream of labels per trial, or None when not recorded."""
        return self.tally.verdicts

    def result_document(self) -> dict[str, Any]:
        """The results document without trial_verdicts, which results_json
        renders from the verdict codes."""
        return {
            "schema": RESULTS_SCHEMA,
            "config": self.config.to_dict(),
            "aggregates": self.aggregates,
        }

    @cached_property
    def _json_text(self) -> str:
        text = canonical_json(self.result_document())
        if self.tally.codes is None:
            return text
        # trial_verdicts sorts after every other top-level key: its array goes just before the
        # closing brace, and one join copies the array's text once
        return "".join([text[:-2], ',"trial_verdicts": [', _verdict_rows_json(self.tally), "]}\n"])

    @cached_property
    def _csv_text(self) -> str:
        return flat_csv(self.aggregates)

    def results_json(self) -> str:
        return self._json_text

    def render_csv(self) -> str:
        return self._csv_text

    def write_outputs(self, out_dir) -> dict[str, Path]:
        """Write results.json, results.csv, and the run_meta.json sidecar; the
        library writes files nowhere else."""
        out = output_dir(out_dir)
        paths = {
            "json": out / "results.json",
            "csv": out / "results.csv",
            "meta": out / "run_meta.json",
        }
        write_document(paths["json"], self.results_json())
        write_document(paths["csv"], self.render_csv())
        write_document(paths["meta"], canonical_json(self.run_meta))
        return paths


def flat_csv(payload: dict[str, Any]) -> str:
    """A JSON document as a two-column CSV table: dotted metric path, value.

    Keys are sorted; a list of scalars is one row joined with ";", a list of
    objects is indexed as name[i]; None renders empty.
    """
    rows = [["metric", "value"]]
    _flat_rows(payload, "", rows)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _flat_rows(value, path: str, rows: list[list[str]]) -> None:
    """Append value's rows under path to rows. A module-level function: a closure
    that called itself would be a reference cycle, keeping each call's rows
    alive until the cyclic garbage collector runs."""
    if isinstance(value, dict):
        for key in sorted(value):
            _flat_rows(value[key], f"{path}.{key}" if path else key, rows)
    elif isinstance(value, (list, tuple)) and any(isinstance(v, (dict, list, tuple)) for v in value):
        for i, item in enumerate(value):
            _flat_rows(item, f"{path}[{i}]", rows)
    elif isinstance(value, (list, tuple)):
        rows.append([path, ";".join("" if v is None else str(v) for v in value)])
    else:
        rows.append([path, "" if value is None else str(value)])


def output_dir(path) -> Path:
    """path as a Path, made a directory with its parents if it is not one. An
    existing directory gets no mkdir, which would raise and catch FileExistsError."""
    out = Path(path)
    if not out.is_dir():
        out.mkdir(parents=True, exist_ok=True)
    return out


def write_document(path, text: str) -> None:
    """Write text to path as UTF-8, rewriting an existing file in place.

    The file is opened without O_TRUNC and written from its start; an old
    file longer than the text is then cut to the length written. It keeps its
    inode, and a shorter text leaves no old tail. Truncating an existing file
    to zero first costs far more on some filesystems than overwriting it. No
    fsync, and not atomic: a write cut off midway can leave the new bytes
    followed by old ones. The encoded text is the one copy of it made, as
    with Path.write_text.
    """
    data = memoryview(text.encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        old = os.fstat(fd)
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        # a device such as /dev/null has no length to cut
        if stat.S_ISREG(old.st_mode) and old.st_size > written:
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift, no NaN, one trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), allow_nan=False) + "\n"


def _verdict_rows_json(tally: Tally) -> str:
    """The canonical JSON of each trial's list of verdict labels, joined by ","
    in trial order: the items of the trial_verdicts array. A list of strings
    renders as its items' JSON joined by "," in brackets, once per distinct
    row of codes. The labels are fixed ASCII that JSON does not escape, so
    each renders as itself in quotes."""
    codes = tally.codes
    trials, ops = codes.shape
    if ops % 8:  # pad with -1, the code of an op not run, so each row is whole uint64 words
        padded = np.full((trials, ops + -ops % 8), -1, dtype=np.int8)
        padded[:, :ops] = codes
        codes = padded
    words = codes.view(np.uint64)
    # distinct rows by sorting them as integer keys: np.unique over a void view compares bytes, far slower
    order = np.lexsort(words.T)
    ranked = words[order]
    first = np.ones(trials, dtype=bool)  # where a new distinct row starts in ranked
    np.any(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
    labels = [[f'"{label}"' for label in op] for op in tally.labels()]
    texts = np.array([
        "[" + ",".join([label[c] for label, c in zip(labels, row) if c >= 0]) + "]"
        for row in ranked[first].view(np.int8).tolist()
    ], dtype=object)
    rendered = np.empty(trials, dtype=object)
    rendered[order] = texts[np.cumsum(first) - 1]
    return ",".join(rendered.tolist())


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute config.trials independent sessions and aggregate their verdicts.

    Trials are isolated: engine.run_sessions plays each session on its own
    row of memory with counter-based draws keyed by (seed, trial index), so
    the aggregate is independent of chunking and execution order. A session
    ends at its first "buggy" verdict. Writes no files: see
    ExperimentResult.write_outputs.
    """
    started = datetime.datetime.now(datetime.timezone.utc)
    t0 = time.monotonic()

    tally = run_sessions(config, range(config.trials))

    n_trials = config.trials
    buggy = tally.buggy
    # an accepted retrieve answers; every session without a reject accepts all
    answers_total = sum(tally.accepted)
    per_step = [
        {"step": pos, "reached": reached, "accepted": accepted, "rate": accepted / reached if reached else None}
        for pos, (reached, accepted) in enumerate(zip(tally.reached, tally.accepted))
    ]
    aggregates: dict[str, Any] = {
        "trials": n_trials,
        "k": config.resolved_k(),
        "sessions": {"buggy": buggy, "false_buggy": tally.false_buggy, "all_accept": n_trials - buggy},
        "counts": {"answers_total": answers_total, "answers_correct": tally.correct},
        "rates": {
            # no answers means no answer was ever wrong; answers_total disambiguates
            "correctness": (tally.correct / answers_total) if answers_total else 1.0,
            "buggy": buggy / n_trials,
            "false_buggy": tally.false_buggy / n_trials,
        },
        "std_errors": {"buggy": binomial_std_error(buggy / n_trials, n_trials)},
        "per_step_accept": per_step,
        "complexity": _probe_complexity(config),
    }
    aggregates["bounds"] = [r.to_dict() for r in _attach_bounds(config, aggregates)]

    run_meta = {
        "started_utc": started.isoformat(),
        "elapsed_seconds": time.monotonic() - t0,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
    }
    return ExperimentResult(config=config, aggregates=aggregates, tally=tally, run_meta=run_meta)

