"""In-memory span tracing around qmemcheck's layer boundaries, plus span arithmetic.

The tracer replaces public names *as the calling module sees them* (for
example the ``store`` that ``qmemcheck.harness`` imported, or
``HadamardCode.encode`` on the class) with wrappers that record one span per
call: name, start, end, parent span and trial id. Nothing inside ``src/`` is
edited. Spans stay in memory while a traced call runs and are written out
only after it ends, so tracing does no I/O inside the measured region.

A name that no longer exists is reported as absent instead of failing the
run: later engine rewrites are expected to remove some of these call paths
(``_run_trial`` and the per-trial ``default_rng`` in particular).

The module-level functions below (``self_time``, ``percentile``,
``swap_useful_ratio``, ...) are pure functions of a span list, so the
benchmark's tests can check them on hand-built span trees.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

# Span fields, as stored in the tracer's list: [name, start, end, parent, trial, extra].
NAME, START, END, PARENT, TRIAL, EXTRA = range(6)

OUTPUT_SPANS = (
    "harness.ExperimentResult.write_outputs",
    "harness.ExperimentResult.results_json",
    "harness.ExperimentResult.render_csv",
)
DECODE_SPANS = ("code.HadamardCode.decode_query_plan", "code.HadamardCode.decode_from_answers")
OP_SPANS = ("harness.store", "harness.retrieve")


def _verdict_is_buggy(tracer, args, result) -> bool:
    return bool(result.is_buggy)


def _nbytes(tracer, args, result) -> int:
    return int(result.nbytes)


def _summary_count(tracer, args, result) -> int:
    return len(result)


def _size_of_result(tracer, args, result) -> int:
    return int(result.size)


def _positions_recorded(tracer, args, result) -> int:
    return len(args[1])


def _report_samples(tracer, args, result) -> int:
    return int(result.samples)


@dataclass
class Patch:
    """One wrapped name: where it lives, the label its spans carry, and what to record."""

    module: str
    owner: str | None  # class inside the module, or None for a module attribute
    attr: str
    label: str
    extra: Callable[[Any, tuple, Any], Any] | None = None  # (tracer, args, result) -> recorded value


def _swap_outcome(tracer, args, result):
    """The test's outcome bit; while the tracer's distance budget lasts, also the
    Hamming distance between the two fingerprints compared (an O(m) count)."""
    bit = int(result.bit)
    if tracer.distance_budget <= 0:
        return bit
    tracer.distance_budget -= 1
    return bit, int((args[0].phases != args[1].phases).sum())


def patch_table() -> list[Patch]:
    """Every layer boundary the benchmark wraps."""
    as_bits_sites = ("checker", "code", "fingerprint", "adversary", "harness")
    return [
        Patch("qmemcheck.cli", None, "main", "cli.main"),
        Patch("qmemcheck.cli", None, "run_experiment", "cli.run_experiment"),
        Patch("qmemcheck.cli", None, "verify_lemma2", "cli.verify_lemma2", _report_samples),
        Patch("qmemcheck.cli", None, "verify_swap_oracle", "cli.verify_swap_oracle", _report_samples),
        Patch("qmemcheck.harness", None, "derive_trial_seed", "harness.derive_trial_seed"),
        Patch("numpy.random", None, "default_rng", "numpy.random.default_rng"),
        Patch("qmemcheck.harness", None, "_run_trial", "harness._run_trial"),
        Patch("qmemcheck.harness", None, "store", "harness.store", _verdict_is_buggy),
        Patch("qmemcheck.harness", None, "retrieve", "harness.retrieve", _verdict_is_buggy),
        Patch("qmemcheck.harness", None, "apply_step", "harness.apply_step"),
        Patch("qmemcheck.harness", "ExperimentResult", "write_outputs", OUTPUT_SPANS[0]),
        Patch("qmemcheck.harness", "ExperimentResult", "results_json", OUTPUT_SPANS[1]),
        Patch("qmemcheck.harness", "ExperimentResult", "render_csv", OUTPUT_SPANS[2]),
        Patch("qmemcheck.checker", None, "_verification_accepts", "checker._verification_accepts"),
        Patch("qmemcheck.checker", None, "sample_swap_test", "checker.sample_swap_test", _swap_outcome),
        Patch("qmemcheck.checker", None, "make_fingerprint", "checker.make_fingerprint"),
        Patch("qmemcheck.checker", "PublicMemory", "fetch_summaries",
              "checker.PublicMemory.fetch_summaries", _summary_count),
        Patch("qmemcheck.checker", "PublicMemory", "read_bits", "checker.PublicMemory.read_bits",
              _size_of_result),
        Patch("qmemcheck.code", "HadamardCode", "encode", "code.HadamardCode.encode"),
        Patch("qmemcheck.code", "HadamardCode", "decode_query_plan", DECODE_SPANS[0]),
        Patch("qmemcheck.code", "HadamardCode", "decode_from_answers", DECODE_SPANS[1]),
        Patch("qmemcheck.adversary", "AdversaryLog", "record_step", "adversary.AdversaryLog.record_step",
              _positions_recorded),
        Patch("qmemcheck.analysis", None, "cswap_statevector_prob", "analysis.cswap_statevector_prob"),
    ] + [Patch(f"qmemcheck.{site}", None, "as_bits", "bits.as_bits", _nbytes) for site in as_bits_sites]


class Tracer:
    """Records spans from wrapped names while installed; restores every name on uninstall.

    distance_checks is how many SWAP tests per traced call also record the
    distance between their fingerprints. The count is O(m) and runs inside the
    enclosing retrieve's span, so it is capped to keep that distortion small.
    """

    def __init__(self, patches: Iterable[Patch], distance_checks: int = 0) -> None:
        self.patches = list(patches)
        self.distance_checks = distance_checks
        self.distance_budget = distance_checks
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._trial = -1
        self._saved: list[tuple[Any, str, Any, bool]] = []

    def reset(self) -> None:
        """Drop the spans of the previous call (in place: the wrappers hold the list)."""
        self.spans.clear()
        self._stack.clear()
        self._trial = -1
        self.distance_budget = self.distance_checks

    def install(self) -> None:
        """Wrap every name in the table that exists; record the labels of those that do not."""
        self.absent = []
        for p in self.patches:
            try:
                owner = importlib.import_module(p.module)
            except ImportError:
                self.absent.append(p.label)
                continue
            if p.owner is not None:
                owner = getattr(owner, p.owner, None)
            original = None if owner is None else getattr(owner, p.attr, None)
            if original is None:
                if p.label not in self.absent:
                    self.absent.append(p.label)
                continue
            owned = p.attr in vars(owner)
            setattr(owner, p.attr, self._wrap(original, p))
            self._saved.append((owner, p.attr, original, owned))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original, owned = self._saved.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, original: Callable, patch: Patch) -> Callable:
        spans = self.spans
        stack = self._stack
        label = patch.label
        extra = patch.extra
        # the per-trial seed derivation marks where each trial starts
        sets_trial = label == "harness.derive_trial_seed"
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if sets_trial:
                tracer._trial = args[1]
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, tracer._trial, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(tracer, args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines: name, start, end, parent, trial, extra."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- span arithmetic ----------------------------------------------------------


def children_index(spans: list[list]) -> dict[int, list[int]]:
    """Map each span index to the indices of its direct children (-1 holds the roots)."""
    out: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        out.setdefault(span[PARENT], []).append(i)
    return out


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(spans: list[list], index: int, children: dict[int, list[int]]) -> float:
    """A span's duration minus the part of its interval its direct children cover."""
    span = spans[index]
    kids = ((spans[c][START], spans[c][END]) for c in children.get(index, ()))
    return (span[END] - span[START]) - covered(kids, span[START], span[END])


def ancestors(spans: list[list], index: int) -> Iterable[int]:
    parent = spans[index][PARENT]
    while parent != -1:
        yield parent
        parent = spans[parent][PARENT]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule); q in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def swap_useful_ratio(spans: list[list]) -> float | None:
    """SWAP tests up to and including each verification's first reject, over tests sampled.

    Tests are grouped by their parent span (the verification when that name is
    wrapped, else the store or retrieve). A verification with no reject counts
    every test as useful. None when no test ran.
    """
    groups: dict[int, list[int]] = {}
    for span in spans:
        if span[NAME] == "checker.sample_swap_test":
            extra = span[EXTRA]
            bit = extra[0] if isinstance(extra, (tuple, list)) else extra
            groups.setdefault(span[PARENT], []).append(bit)
    sampled = sum(len(bits) for bits in groups.values())
    if not sampled:
        return None
    useful = sum(bits.index(1) + 1 if 1 in bits else len(bits) for bits in groups.values())
    return useful / sampled


@dataclass
class CallLayers:
    """Per-layer figures of one traced CLI call: timing samples (seconds) and scalars."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    scalars: dict[str, float] = field(default_factory=dict)
    checks: list[str] = field(default_factory=list)


TIMING_SPANS = {
    "harness.seed_us": ("harness.derive_trial_seed",),
    "harness.rng_us": ("numpy.random.default_rng",),
    "checker.store_us": ("harness.store",),
    "checker.retrieve_us": ("harness.retrieve",),
    "fingerprint.swap_test_us": ("checker.sample_swap_test",),
    "fingerprint.make_us": ("checker.make_fingerprint",),
    "code.encode_us": ("code.HadamardCode.encode",),
    "adversary.step_us": ("harness.apply_step",),
    "bits.as_bits_us": ("bits.as_bits",),
    "fingerprint.cswap_us": ("analysis.cswap_statevector_prob",),
}
COUNT_SPANS = {
    "checker.stores": "harness.store",
    "checker.retrieves": "harness.retrieve",
    "fingerprint.swap_tests": "checker.sample_swap_test",
    "code.encodes": "code.HadamardCode.encode",
    "code.decodes": "code.HadamardCode.decode_from_answers",
    "adversary.steps": "harness.apply_step",
    "bits.as_bits_calls": "bits.as_bits",
}
SUM_EXTRA = {
    "checker.summaries": "checker.PublicMemory.fetch_summaries",
    "checker.bits_read": "checker.PublicMemory.read_bits",
    "adversary.bits_flipped": "adversary.AdversaryLog.record_step",
    "bits.bytes_validated": "bits.as_bits",
}


# Every per-layer metric a traced run reports. Timings are in microseconds,
# reported as p50 under the name and p99 under "<name>.p99"; the rest are
# figures of one traced call, with their units.
TIMING_METRICS = tuple(TIMING_SPANS) + ("checker.self_us", "code.decode_us")
SCALAR_UNITS = {
    "harness.self_s": "s", "harness.output_s": "s", "harness.results_bytes": "bytes",
    "checker.stores": "count", "checker.retrieves": "count", "checker.reject_ratio": "ratio",
    "checker.summaries": "count", "checker.bits_read": "count",
    "fingerprint.swap_tests": "count", "fingerprint.bytes_compared": "bytes_computed",
    "fingerprint.swap_useful_ratio": "ratio",
    "code.encodes": "count", "code.decodes": "count",
    "adversary.steps": "count", "adversary.bits_flipped": "count",
    "bits.as_bits_calls": "count", "bits.bytes_validated": "bytes",
    "analysis.lemma2_schedules_per_s": "1/s", "analysis.oracle_pairs_per_s": "1/s",
    "cli.self_ms": "ms",
}


def call_layers(spans: list[list], m: int | None) -> CallLayers:
    """Derive every per-layer figure of one traced call from its spans.

    m is the codeword length of a simulate workload (None otherwise); it turns
    the SWAP-test count into computed bytes compared (2*m per test).
    """
    out = CallLayers()
    children = children_index(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)

    def durations(name: str) -> list[float]:
        return [spans[i][END] - spans[i][START] for i in by_name.get(name, ())]

    for metric, names in TIMING_SPANS.items():
        out.samples[metric] = [d for name in names for d in durations(name)]
    out.samples["checker.self_us"] = [
        self_time(spans, i, children) for name in OP_SPANS for i in by_name.get(name, ())
    ]
    decode_by_parent: dict[int, float] = {}
    for name in DECODE_SPANS:
        for i in by_name.get(name, ()):
            decode_by_parent[spans[i][PARENT]] = (
                decode_by_parent.get(spans[i][PARENT], 0.0) + spans[i][END] - spans[i][START]
            )
    out.samples["code.decode_us"] = list(decode_by_parent.values())

    sc = out.scalars
    for metric, name in COUNT_SPANS.items():
        sc[metric] = len(by_name.get(name, ()))
    for metric, name in SUM_EXTRA.items():
        sc[metric] = sum(spans[i][EXTRA] for i in by_name.get(name, ()))
    ops = [i for name in OP_SPANS for i in by_name.get(name, ())]
    sc["checker.reject_ratio"] = (
        sum(1 for i in ops if spans[i][EXTRA]) / len(ops) if ops else 0.0
    )
    sc["fingerprint.bytes_compared"] = 2 * (m or 0) * sc["fingerprint.swap_tests"]
    ratio = swap_useful_ratio(spans)
    sc["fingerprint.swap_useful_ratio"] = 0.0 if ratio is None else ratio

    sc["harness.self_s"] = sum(self_time(spans, i, children) for i in by_name.get("cli.run_experiment", ()))
    output = [i for name in OUTPUT_SPANS for i in by_name.get(name, ())]
    sc["harness.output_s"] = sum(
        spans[i][END] - spans[i][START]
        for i in output
        if not any(spans[a][NAME] in OUTPUT_SPANS for a in ancestors(spans, i))
    )
    sc["cli.self_ms"] = 1e3 * sum(self_time(spans, i, children) for i in by_name.get("cli.main", ()))
    for metric, name in (
        ("analysis.lemma2_schedules_per_s", "cli.verify_lemma2"),
        ("analysis.oracle_pairs_per_s", "cli.verify_swap_oracle"),
    ):
        idx = by_name.get(name, ())
        busy = sum(spans[i][END] - spans[i][START] for i in idx)
        sc[metric] = sum(spans[i][EXTRA] for i in idx) / busy if busy else 0.0
    return out


def check_op_traffic(spans: list[list], complexity: dict[str, int], k: int, m: int) -> list[str]:
    """Reconcile the summaries and bits each op was served with the complexity block.

    With L = ceil(log2 m) qubits per summary, an accepted retrieve must be
    served 2k summaries plus q = 2 bits, and 2k*L + 2 must equal the document's
    t_qubits_per_retrieve. A rejected retrieve is served k summaries and no
    bits; a store k summaries (none for a session's first store) and no bits.
    The document's s_qubits must equal k*L.
    """
    qubits = (m - 1).bit_length()
    if complexity["s_qubits"] != k * qubits:
        return [f"s_qubits {complexity['s_qubits']} != k*log2(m) = {k * qubits}"]
    served: dict[int, list[int]] = {i: [0, 0] for i, span in enumerate(spans) if span[NAME] in OP_SPANS}
    slots = {"checker.PublicMemory.fetch_summaries": 0, "checker.PublicMemory.read_bits": 1}
    for i, span in enumerate(spans):
        slot = slots.get(span[NAME])
        op = None if slot is None else next((a for a in ancestors(spans, i) if a in served), None)
        if op is not None:
            served[op][slot] += span[EXTRA]
    for i, (summaries, bits) in served.items():
        name, buggy = spans[i][NAME], spans[i][EXTRA]
        if name == "harness.retrieve" and not buggy:
            ok = (summaries, bits) == (2 * k, 2) and summaries * qubits + bits == complexity["t_qubits_per_retrieve"]
        elif name == "harness.retrieve":
            ok = (summaries, bits) == (k, 0)
        else:
            ok = summaries in (0, k) and bits == 0
        if not ok:
            return [
                f"{name} in trial {spans[i][TRIAL]} was served {summaries} summaries and {bits} bits; "
                f"that does not reconcile with k={k}, m={m} and complexity {complexity}"
            ]
    return []


def check_swap_distances(spans: list[list], expected: int) -> list[str]:
    """Every SWAP test of a retrieve that directly follows an adversary step sees distance *expected*.

    After each refresh the fingerprints describe the memory as it was, so a
    step that flips *expected* distinct positions leaves exactly that distance.
    Only tests that recorded a distance are checked.
    """
    after_step = set()
    last_op: dict[int, str] = {}
    for i, span in enumerate(spans):
        if span[NAME] in ("harness.apply_step",) + OP_SPANS:
            if span[NAME] == "harness.retrieve" and last_op.get(span[PARENT]) == "harness.apply_step":
                after_step.add(i)
            last_op[span[PARENT]] = span[NAME]
    for i, span in enumerate(spans):
        extra = span[EXTRA]
        if span[NAME] != "checker.sample_swap_test" or not isinstance(extra, (tuple, list)):
            continue
        if extra[1] != expected and any(a in after_step for a in ancestors(spans, i)):
            return [f"SWAP test in trial {span[TRIAL]} at distance {extra[1]} after an adversary step, expected {expected}"]
    return []
