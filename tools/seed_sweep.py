"""Check one benchmark workload's output documents at every seed of a range, for one source tree.

The tree's src/qmemcheck is copied into a temporary directory under its own
package name (qmemcheck_sweep) and imported there (load_clis, which
tools/ab_calls.py shares), so the sweep runs in this process whatever
qmemcheck is installed. For each seed A <= seed < B, the
workload's CLI calls (Workload.calls in perfbench/workloads.py) run with
stdout and stderr sent to devnull, each seed into its own empty --out
directory, and each of the workload's documents is checked with perfbench's
check_document, the exact-value checks the benchmark itself applies. One line
is printed per failing seed, and then a summary:

    <workload> <seed> <problem>; <problem>; ...
    <workload> seeds=A:B failed=<count> [<seed>, ...]

Each check is a 4-sigma band, so about 6 seeds in 100,000 fail on a correct
program; a change of the random streams redraws which ones. Comparing two trees
shows whether a change moved the failure rate or only the failing seeds:

    python tools/seed_sweep.py --src PARENT_TREE --workload flipcount-n16 --seeds 0:300
    python tools/seed_sweep.py --src . --workload flipcount-n16 --seeds 0:300

A tree without src/qmemcheck, an unknown workload or a --seeds that is not
A:B with 0 <= A < B stops the tool with exit 1 and one stderr line before any
call; so does a call that exits with anything but 0 or 2 (a failed check,
whose documents are still written).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Iterator, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS, check_document  # noqa: E402

PACKAGE = "qmemcheck_sweep"


@contextlib.contextmanager
def load_clis(trees: Sequence[Path], packages: Sequence[str]) -> Iterator[list]:
    """The cli module of each tree's src/qmemcheck, imported from a copy under the
    matching package name in a temporary directory. Every import inside the package
    is relative, so copies load side by side whatever qmemcheck is installed. On exit
    the copies are unloaded, so a later run imports its trees afresh."""
    with tempfile.TemporaryDirectory() as tmp_name:
        sys.path.insert(0, tmp_name)
        try:
            for tree, name in zip(trees, packages):
                source = tree / "src" / "qmemcheck"
                shutil.copytree(source, Path(tmp_name) / name, ignore=shutil.ignore_patterns("__pycache__"))
            yield [importlib.import_module(f"{name}.cli") for name in packages]
        finally:
            sys.path.remove(tmp_name)
            for name in [m for m in sys.modules if m.split(".")[0] in packages]:
                del sys.modules[name]


def sweep(tree: Path, workload: str, seeds: range) -> dict[int, list[str]]:
    """The problems check_document finds in each seed's documents, for the seeds with any."""
    spec = WORKLOADS[workload]
    failed = {}
    with tempfile.TemporaryDirectory() as tmp_name, open(os.devnull, "w") as devnull, \
            load_clis([tree], [PACKAGE]) as (cli,):
        tmp = Path(tmp_name)
        config_path = tmp / "config.json"
        config_path.write_text(json.dumps(spec.config))
        for seed in seeds:
            out_dir = tmp / f"out-{seed}"
            with contextlib.redirect_stdout(devnull), contextlib.redirect_stderr(devnull):
                for argv in spec.calls(seed, str(config_path), str(out_dir)):
                    rc = cli.main(argv)
                    if rc not in (0, 2):
                        raise RuntimeError(f"seed {seed}: {' '.join(argv)} exited {rc}")
            problems = [
                problem
                for doc in spec.docs
                for problem in check_document(spec, doc, json.loads((out_dir / doc).read_text()))
            ]
            if problems:
                failed[seed] = problems
            shutil.rmtree(out_dir)
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True, metavar="TREE", help="source tree to sweep")
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOADS)}")
    parser.add_argument("--seeds", required=True, metavar="A:B", help="the seeds A <= seed < B")
    args = parser.parse_args(argv)
    tree = args.src.resolve()
    problems = [] if (tree / "src" / "qmemcheck").is_dir() else [f"no package at {tree / 'src' / 'qmemcheck'}"]
    if args.workload not in WORKLOADS:
        problems.append(f"unknown workload {args.workload!r}, expected one of {', '.join(WORKLOADS)}")
    bounds = re.fullmatch(r"(\d+):(\d+)", args.seeds)
    if not bounds or int(bounds[1]) >= int(bounds[2]):
        problems.append(f"--seeds must be A:B with 0 <= A < B, got {args.seeds!r}")
    if problems:
        print(f"error: {problems[0]}", file=sys.stderr)
        return 1
    try:
        failed = sweep(tree, args.workload, range(int(bounds[1]), int(bounds[2])))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for seed, found in failed.items():
        print(f"{args.workload} {seed} {'; '.join(found)}")
    print(f"{args.workload} seeds={args.seeds} failed={len(failed)} {sorted(failed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
