"""qmemcheck benchmark: one command runs a workload, checks its outputs, and prints every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root (the directory holding ``src/qmemcheck``).
Python needs no build: each child interpreter imports the package from
``src/``. The run is a closed loop with one caller: fresh child interpreters
run one after another, and each sets up, then calls ``qmemcheck.cli.main``
in-process until its share of the S seconds is spent. Nothing else runs
meanwhile. The master seed N is passed to every call as ``--seed``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from untraced
calls. ``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics; the traced spans of the last traced call are written to
the run directory. Every call's output documents are hashed and checked
against exact values; an invocation fails on a nonzero exit, a failed bound
or exact-value check, or a document that differs from another repeat with
the same seed. The machine's speed drifts, so the gated times are taken
relative to a reference computation timed beside the calls (see child.py).
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Exit status 0 when a result was printed; 1 when the benchmark itself could
not run (no source tree, a child interpreter that failed or hung).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import SCALAR_UNITS, TIMING_METRICS
from workloads import K, WORKLOADS, check_document

HERE = Path(__file__).resolve().parent
# Fresh interpreters per run: each pays set-up once, and several of them
# spread the machine's drift in speed between processes over the run.
CHILDREN = 8
# Slack beyond --seconds for set-ups and the last call of each child; a run
# that needs more than this has hung, and is stopped without a result.
SLACK_S = 120
RUN_DIR = ".perfbench"
# setup_s is reported at the speed at which child.session_reference takes this
# long (about its time on the 2-vCPU Xeon the benchmark was written on).
NOMINAL_SESSION_GAUGE_S = 0.010

class BenchError(RuntimeError):
    """The benchmark could not produce a result (as opposed to the program failing a check)."""


def environment(root: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "loadavg_start": list(os.getloadavg()),
    }


def git_commit(root: Path) -> str:
    """HEAD's commit id read from .git without running git; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(spec_path: Path, deadline: float) -> tuple[float, dict]:
    """Start one child interpreter, wait for it until *deadline*, and return (start time, its report)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - start, 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("child interpreter did not finish within the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"child interpreter exited with {proc.returncode}:\n{err.strip()}")
    try:
        return start, json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"child interpreter printed no report:\n{err.strip()}") from None


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def evaluate(workload, reports: list[dict], keep_dir: Path) -> tuple[int, int, list[str]]:
    """Count invocations and failures over every measured call of the run."""
    calls = [(r, i) for rep in reports for r in rep["records"] for i in range(len(workload.docs))]
    modal = {}
    for i, name in enumerate(workload.docs):
        digests = [r["sha"][i] for r, j in calls if j == i and r["sha"][i] is not None]
        modal[name] = statistics.mode(digests) if digests else None
    doc_problems: dict[tuple[str, str], list[str]] = {}
    problems: list[str] = []
    failed = 0
    for record, i in calls:
        name, sha = workload.docs[i], record["sha"][i]
        why = []
        if record["rc"][i] != 0:
            why.append(f"{name}: exit code {record['rc'][i]}")
        if sha is None:
            why.append(f"{name}: not written")
        else:
            if sha != modal[name]:
                why.append(f"{name}: sha256 {sha[:12]} differs from the other repeats ({modal[name][:12]})")
            if (name, sha) not in doc_problems:
                doc = json.loads((keep_dir / f"{name}.{sha}").read_text())
                doc_problems[(name, sha)] = check_document(workload, name, doc)
            why += doc_problems[(name, sha)]
        why += record["problems"] + record["errors"]
        if why:
            failed += 1
            problems += [p for p in why if p not in problems]
    return len(calls), failed, problems


def end_to_end(workload, reports: list[dict], starts: list[float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics, from untraced calls only, plus report lines for the raw wall times.

    The machine's speed drifts by tens of percent over seconds and minutes, so
    both times are taken relative to a reference computation timed beside
    them (see child.py). call_ref is the median over iterations of the
    iteration's wall time over the mean of the two reference timings around
    it. setup_s is the median over children of the set-up time scaled by
    NOMINAL_SESSION_GAUGE_S over the session gauge timed right after set-up.
    """
    untraced = [r for rep in reports for r in rep["records"] if not r["traced"]]
    call_s = median_of([sum(r["elapsed"]) for r in untraced])
    setups = [rep["ready"] - start for rep, start in zip(reports, starts)]
    metrics = {
        "call_ref": (median_of([sum(r["elapsed"]) / r["ref"] for r in untraced]), "ref"),
        "setup_s": (median_of([t * NOMINAL_SESSION_GAUGE_S / rep["setup_gauge"]
                               for t, rep in zip(setups, reports)]), "s"),
        "peak_rss_mb": (median_of([rep["rss_kb"] / 1024.0 for rep in reports]), "MB"),
    }
    lines = [
        f"untraced iterations: {len(untraced)}  children: {CHILDREN}",
        f"  {'call_s (raw wall, not gated)':34s} {call_s:16.6f} s",
        f"  {'setup raw (not gated)':34s} {median_of(setups):16.6f} s",
        f"  {'reference_s':34s} {median_of([r['ref'] for r in untraced]):16.6f} s",
        f"  {'session gauge after set-up':34s} {median_of([rep['setup_gauge'] for rep in reports]):16.6f} s",
    ]
    if workload.trials is not None:
        lines.append(f"  {'sessions_per_s (trials / call_s)':34s} {workload.trials / call_s:16.3f} 1/s")
    else:
        lines.append(f"  {'verify_s (= call_s)':34s} {call_s:16.6f} s")
    return metrics, lines


def per_layer(reports: list[dict]) -> tuple[dict, dict]:
    """Every per-layer metric from the traced calls, plus the sample count behind each timing."""
    traced = [r for rep in reports for r in rep["records"] if r["traced"]]
    untraced = [r for rep in reports for r in rep["records"] if not r["traced"]]
    metrics: dict[str, tuple[float, str]] = {}
    counts: dict[str, int] = {}
    for name in TIMING_METRICS:
        per_child = [rep["timings"].get(name, {"n": 0}) for rep in reports]
        counts[name] = sum(t["n"] for t in per_child)
        sampled = [t for t in per_child if t["n"]]
        metrics[name] = (1e6 * median_of([t["p50"] for t in sampled]), "us")
        metrics[name + ".p99"] = (1e6 * median_of([t["p99"] for t in sampled]), "us")
    for name, unit in SCALAR_UNITS.items():
        if name == "harness.results_bytes":
            value = median_of([sum(r["bytes"]) for r in traced])
        else:
            value = median_of([r["scalars"][name] for r in traced])
        metrics[name] = (value, unit)
    def relative(records):
        return median_of([sum(r["elapsed"]) / r["ref"] for r in records])

    overhead = relative(traced) / relative(untraced) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2^64)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    src = root / "src"
    if not (src / "qmemcheck" / "__init__.py").is_file():
        print(f"error: no qmemcheck source tree under {src}; run from the repository root", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    env = environment(root)

    run_dir = root / RUN_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    keep_dir = run_dir / "docs"
    keep_dir.mkdir(parents=True)
    config_path = run_dir / "config.json"
    if workload.config is not None:
        config_path.write_text(json.dumps(workload.config, indent=2) + "\n")
    out_dir = str(run_dir / "out")
    spec = {
        "src": str(src),
        "trace": bool(args.trace),
        "warmup": workload.warmup_calls(args.seed, str(config_path), str(run_dir / "warmup")),
        "calls": workload.calls(args.seed, str(config_path), out_dir),
        "docs": list(workload.docs),
        "out_dir": out_dir,
        "keep_dir": str(keep_dir),
        "budget_s": args.seconds / CHILDREN,
        "m": workload.m,
        "k": K,
        "swap_distance": workload.swap_distance,
        "reference": workload.reference,
        "honest": workload.honest,
        "spans_path": str(run_dir / "spans.jsonl"),
    }
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2) + "\n")

    reports, starts = [], []
    deadline = time.monotonic() + args.seconds + SLACK_S
    try:
        for _ in range(CHILDREN):
            start, report = run_child(spec_path, deadline)
            starts.append(start)
            reports.append(report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = evaluate(workload, reports, keep_dir)
    for rep in reports:
        if any(rc != 0 for rc in rep["warmup_rc"]):
            problems.insert(0, f"warm-up calls exited with {rep['warmup_rc']}: {rep['warmup_errors']}")
    if args.trace:
        metrics, counts = per_layer(reports)
    else:
        metrics, raw_lines = end_to_end(workload, reports, starts)
    env["loadavg_end"] = list(os.getloadavg())
    env["numpy"] = reports[0]["numpy"]

    lines = [f"qmemcheck benchmark  workload={workload.name} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace}  ({workload.why})"]
    lines.append("environment: " + json.dumps(env, sort_keys=True))
    if args.trace:
        absent = sorted({name for rep in reports for name in rep["absent"]})
        lines.append(f"traced calls: {sum(r['traced'] for rep in reports for r in rep['records'])}; "
                     f"absent names: {absent or 'none'}")
        for name, (value, unit) in metrics.items():
            n = counts.get(name.removesuffix(".p99"))
            lines.append(f"  {name:34s} {value:16.6f} {unit}" + ("" if n is None else f"  (n={n})"))
    else:
        lines.append(raw_lines[0])
        for name, (value, unit) in metrics.items():
            lines.append(f"  {name:34s} {value:16.6f} {unit}")
        lines += raw_lines[1:]
    lines.append(f"  {'failed_frac':34s} {failed / attempted:16.6f} ratio  ({failed} of {attempted} invocations)")
    lines += [f"  FAILED: {p}" for p in problems[:10]]

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    timeline = [{"start": s, "ready": rep["ready"], "setup_gauge": rep["setup_gauge"], "rss_kb": rep["rss_kb"],
                 "elapsed": [r["elapsed"] for r in rep["records"]],
                 "ref": [r["ref"] for r in rep["records"]],
                 "traced": [r["traced"] for r in rep["records"]]} for rep, s in zip(reports, starts)]
    (run_dir / "result.json").write_text(
        json.dumps({"environment": env, "problems": problems, **result, "children": timeline}, indent=2) + "\n"
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
