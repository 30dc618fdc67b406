"""Time one benchmark workload's CLI calls for two source trees, alternating in one process.

Each tree's src/qmemcheck is copied into a temporary directory under its own
package name (qmemcheck_a for --a, qmemcheck_b for --b). Every import inside
the package is relative, so both load side by side in this interpreter.
Both trees then run one untimed iteration, and then --pairs timed pairs:
pair i runs A then B when i is even, B then A when it is odd. An iteration
is the workload's CLI calls (Workload.calls in perfbench/workloads.py, at
--seed, each tree writing to its own --out directory), with stdout sent to
devnull. After every iteration the workload's reference gauge is timed
(REFERENCES in perfbench/child.py, the median of three runs), and each
iteration is also taken relative to the mean of the two gauge readings
around it, as the benchmark's child does for its call_ref. One line is
printed:

    <workload> pairs=N a_ms=<median> b_ms=<median> change=<+x.x%> a_ref=<median> b_ref=<median> ref_change=<+x.x%> b_faster=<k>/N (<share>%)

change is the relative change of B's median iteration time from A's, a_ref
and b_ref are each tree's median iteration time over its gauge, ref_change
is the relative change of b_ref from a_ref, and b_faster counts the pairs
in which B's iteration took less time than A's. The gauge's own allocations
share the heap with the calls, so a change can read faster raw and slower
over the gauge, as it would in the benchmark. Calls in one process see the
same machine drift, so this resolves changes of a few percent that separate
benchmark runs cannot tell from drift:

    python tools/ab_calls.py --a PARENT_TREE --b . --workload honest-mixed-n8 --pairs 3000

A tree without src/qmemcheck, an unknown workload or --pairs below 1 stops
the tool with exit 1 and one stderr line before any call; so does a call
that exits with anything but 0 or 2 (a failed check).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from child import REFERENCES, _time_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PACKAGES = ("qmemcheck_a", "qmemcheck_b")


def load_clis(trees: list[Path], tmp: Path) -> list:
    """The cli module of each tree's package, imported from a copy under its own name in tmp,
    which must already be on sys.path."""
    clis = []
    for tree, name in zip(trees, PACKAGES):
        shutil.copytree(tree / "src" / "qmemcheck", tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
        clis.append(importlib.import_module(f"{name}.cli"))
    return clis


def unload() -> None:
    """Forget the copied packages, so a later run imports its trees afresh."""
    for name in [m for m in sys.modules if m.split(".")[0] in PACKAGES]:
        del sys.modules[name]


def iteration(cli, calls: list[list[str]], devnull) -> float:
    """Seconds one iteration of calls takes; a call exiting with anything but 0 or 2 raises."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(devnull):
        for argv in calls:
            rc = cli.main(argv)
            if rc not in (0, 2):
                raise RuntimeError(f"{cli.__package__}: {' '.join(argv)} exited {rc}")
    return time.perf_counter() - start


def ab_times(trees: list[Path], workload: str, pairs: int, seed: int) -> tuple[list[list[float]], list[list[float]]]:
    """Per-pair iteration times of A and of B, in seconds, and the same times over the gauge."""
    spec = WORKLOADS[workload]
    reference = REFERENCES[spec.reference]
    with tempfile.TemporaryDirectory() as tmp_name, open(os.devnull, "w") as devnull:
        tmp = Path(tmp_name)
        config_path = tmp / "config.json"
        config_path.write_text(json.dumps(spec.config))
        calls = [spec.calls(seed, str(config_path), str(tmp / f"out-{name}")) for name in PACKAGES]
        sys.path.insert(0, tmp_name)
        try:
            clis = load_clis(trees, tmp)
            for cli, argv in zip(clis, calls):
                iteration(cli, argv, devnull)
            times, ratios = [[], []], [[], []]
            ref_before = _time_reference(reference, np)
            for i in range(pairs):
                for side in (0, 1) if i % 2 == 0 else (1, 0):
                    elapsed = iteration(clis[side], calls[side], devnull)
                    ref_after = _time_reference(reference, np)
                    times[side].append(elapsed)
                    ratios[side].append(elapsed / ((ref_before + ref_after) / 2))
                    ref_before = ref_after
        finally:
            sys.path.remove(tmp_name)
            unload()
    return times, ratios


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=Path, required=True, metavar="TREE", help="source tree A (the baseline)")
    parser.add_argument("--b", type=Path, required=True, metavar="TREE", help="source tree B (the change)")
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOADS)}")
    parser.add_argument("--pairs", type=int, default=200, help="timed A/B pairs (default 200)")
    parser.add_argument("--seed", type=int, default=1, help="master seed of every call (default 1)")
    args = parser.parse_args(argv)
    trees = [args.a.resolve(), args.b.resolve()]
    problems = [f"no package at {tree / 'src' / 'qmemcheck'}" for tree in trees
                if not (tree / "src" / "qmemcheck").is_dir()]
    if args.workload not in WORKLOADS:
        problems.append(f"unknown workload {args.workload!r}, expected one of {', '.join(WORKLOADS)}")
    if args.pairs < 1:
        problems.append(f"--pairs must be >= 1, got {args.pairs}")
    if problems:
        print(f"error: {problems[0]}", file=sys.stderr)
        return 1
    try:
        (a, b), ratios = ab_times(trees, args.workload, args.pairs, args.seed)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    a_ms, b_ms = 1e3 * statistics.median(a), 1e3 * statistics.median(b)
    a_ref, b_ref = (statistics.median(side) for side in ratios)
    faster = sum(tb < ta for ta, tb in zip(a, b))
    print(f"{args.workload} pairs={args.pairs} a_ms={a_ms:.4f} b_ms={b_ms:.4f} change={b_ms / a_ms - 1:+.1%} "
          f"a_ref={a_ref:.4f} b_ref={b_ref:.4f} ref_change={b_ref / a_ref - 1:+.1%} "
          f"b_faster={faster}/{args.pairs} ({faster / args.pairs:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
