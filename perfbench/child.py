"""One fresh interpreter of a benchmark run: set up, then call ``qmemcheck.cli.main`` in a closed loop.

Usage: ``python3 child.py SPEC.json`` (run.py writes the spec and starts this
script; it is not meant to be run by hand). The spec names the source tree,
the warm-up and measured CLI argument lists, the output documents to hash,
the call budget in seconds, the workload's reference gauge, and whether to
trace.

Set-up is everything before the first measured call: interpreter start,
``import qmemcheck``, and a warm-up call that parses and validates the same
config and runs its smallest instance. The session gauge is timed right
after it, to scale the set-up time to a nominal machine speed. The measured
loop then runs one
iteration at a time until the budget is spent, and times the workload's
reference computation between iterations. The machine's speed drifts, so
each iteration is also reported relative to the mean of the two gauge
readings around it. When tracing, iterations alternate untraced and traced,
so both see the same drift.

Prints one JSON object on stdout when done.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

# SWAP tests per traced call whose fingerprint distance is checked (see spans.Tracer).
SWAP_DISTANCE_CHECKS = 1000


def session_reference(np) -> int:
    """Per-session churn: one seeded generator per session, then many small-array numpy calls,
    comparisons and Python objects per operation."""
    total = 0
    for i in range(90):
        digest = hashlib.sha256(b"perfbench" + i.to_bytes(8, "little")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:16], "little"))
        stored = rng.integers(0, 2, size=16, dtype=np.uint8)
        for _ in range(8):
            word = np.frombuffer(stored.tobytes(), dtype=np.uint8).astype(np.uint8)
            d = int(np.count_nonzero(word != stored))
            total += int(rng.random() < (1.0 + ((16 - 2 * d) / 16) ** 2) / 2.0)
            total += len(repr({"op": "retrieve", "bit": int(word[rng.integers(16)])}))
        total += len(json.dumps({"i": i, "bits": stored.tolist()}))
    return total


def array_reference(np) -> int:
    """m = 65,536 array work: sampling positions without replacement, flipping, comparing, parity."""
    rng = np.random.default_rng(0)
    masks = np.arange(1 << 16, dtype=np.uint64)
    word = np.zeros(1 << 16, dtype=np.uint8)
    total = 0
    for x in range(60):
        before = word.copy()
        word[rng.choice(word.size, size=1024, replace=False)] ^= 1
        total += int(np.count_nonzero(before != word))
        total += int((np.bitwise_count(masks & np.uint64(x)) & 1).sum())
    return total


def python_reference(np) -> float:
    """Interpreter-bound float arithmetic over an enumeration of integer compositions."""

    def extend(prefix, remaining):
        for g in range(remaining + 1):
            parts = prefix + (g,)
            yield parts
            if len(parts) < 4:
                yield from extend(parts, remaining - g)

    total = 0.0
    for parts in extend((), 22):
        prod = 1.0
        for g in parts:
            d = g / 22
            prod *= 1.0 - 2.0 * d + 2.0 * d * d
        total += prod
    return total


# A fixed computation of the workload's own kind, timed between measured calls
# as a gauge of the machine's current speed for that kind of work. The gauges
# call no qmemcheck code, so a change to the package cannot change them.
REFERENCES = {"session": session_reference, "array": array_reference, "python": python_reference}


def _time_reference(work, np) -> float:
    """Median of three timed runs of the reference: one slow moment must not set the gauge."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        work(np)
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def _run_calls(cli, calls: list[list[str]]) -> tuple[list[float], list[int], list[str]]:
    elapsed, codes, errors = [], [], []
    for argv in calls:
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed invocation; keep measuring the rest
            rc = -1
            errors.append(traceback.format_exc(limit=3))
        elapsed.append(time.perf_counter() - start)
        codes.append(rc)
    return elapsed, codes, errors


def _digest_docs(out_dir: str, docs: list[str], keep_dir: str) -> tuple[list[str | None], list[int]]:
    """sha256 of each output document; the first copy of each distinct document is kept for checking."""
    digests, sizes = [], []
    for name in docs:
        path = os.path.join(out_dir, name)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            digests.append(None)
            sizes.append(0)
            continue
        sha = hashlib.sha256(data).hexdigest()
        keep = os.path.join(keep_dir, f"{name}.{sha}")
        if not os.path.exists(keep):
            shutil.copyfile(path, keep)
        digests.append(sha)
        sizes.append(len(data))
    return digests, sizes


def _clear_docs(out_dir: str, docs: list[str]) -> None:
    for name in docs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import numpy

    import qmemcheck.cli as cli

    tracer = None
    if spec["trace"]:
        import spans as spans_mod

        checks = SWAP_DISTANCE_CHECKS if spec["swap_distance"] is not None else 0
        tracer = spans_mod.Tracer(spans_mod.patch_table(), distance_checks=checks)

    out_dir, docs = spec["out_dir"], spec["docs"]
    records = []
    samples: dict[str, list[float]] = {}
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        _, warm_codes, warm_errors = _run_calls(cli, spec["warmup"])
        ready = time.monotonic()
        setup_gauge = _time_reference(session_reference, numpy)
        deadline = ready + spec["budget_s"]
        traced = False
        reference = REFERENCES[spec["reference"]]
        ref_before = _time_reference(reference, numpy)
        while True:
            _clear_docs(out_dir, docs)
            if traced:
                tracer.reset()
                tracer.install()
            try:
                elapsed, codes, errors = _run_calls(cli, spec["calls"])
            finally:
                if traced:
                    tracer.uninstall()
            ref_after = _time_reference(reference, numpy)
            digests, sizes = _digest_docs(out_dir, docs, spec["keep_dir"])
            record = {"traced": traced, "elapsed": elapsed, "ref": (ref_before + ref_after) / 2,
                      "rc": codes, "sha": digests, "bytes": sizes, "errors": errors, "problems": []}
            ref_before = ref_after
            if traced:
                record.update(_trace_figures(spans_mod, tracer, spec, out_dir))
                for name, values in record.pop("samples").items():
                    samples.setdefault(name, []).extend(values)
            records.append(record)
            if tracer is not None:
                traced = not traced
                if traced:
                    continue  # stop only after an untraced/traced pair, so both kinds are measured
            # stop when one more call of the same length would overrun the budget
            last = sum(sum(r["elapsed"]) for r in records[-2 if tracer else -1:])
            if time.monotonic() + last > deadline:
                break

    result = {
        "ready": ready,
        "setup_gauge": setup_gauge,
        "warmup_rc": warm_codes,
        "warmup_errors": warm_errors,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "records": records,
    }
    if tracer is not None:
        result["absent"] = tracer.absent
        result["timings"] = {
            name: {
                "n": len(values),
                "p50": spans_mod.percentile(values, 50) if values else 0.0,
                "p99": spans_mod.percentile(values, 99) if values else 0.0,
            }
            for name, values in samples.items()
        }
        tracer.write(spec["spans_path"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def _trace_figures(spans_mod, tracer, spec: dict, out_dir: str) -> dict:
    """Per-layer figures and exact trace checks of the traced call just made."""
    layers = spans_mod.call_layers(tracer.spans, spec["m"])
    problems = []
    if spec["m"] is not None:
        try:
            with open(os.path.join(out_dir, "results.json")) as fh:
                complexity = json.load(fh)["aggregates"]["complexity"]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"traced call left no readable results.json: {exc}")
        else:
            problems += spans_mod.check_op_traffic(tracer.spans, complexity, spec["k"], spec["m"])
    if spec["swap_distance"] is not None:
        problems += spans_mod.check_swap_distances(tracer.spans, spec["swap_distance"])
    if spec["honest"] and layers.scalars["fingerprint.swap_useful_ratio"] != 1.0:
        problems.append(
            f"swap_useful_ratio {layers.scalars['fingerprint.swap_useful_ratio']} on an honest run, expected 1.0"
        )
    return {"problems": problems, "scalars": layers.scalars, "samples": layers.samples}


if __name__ == "__main__":
    sys.exit(main())
