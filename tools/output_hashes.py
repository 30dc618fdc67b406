"""Hash every output document of the benchmark's CLI calls, for one source tree.

For each seed and each workload in perfbench/workloads.py, this runs the
workload's CLI calls (Workload.calls, with the config read from WORKLOADS)
in a fresh interpreter that imports qmemcheck from DIR/src. Each workload
and seed gets its own empty --out directory. One line is printed per
document:

    <workload> <seed> <document> <sha256>

The documents are each call's stdout (named "<command>:stdout") and every
file the calls wrote under --out, except run_meta.json, which holds
timings. A change that must keep every output byte is then checked with one
diff:

    python tools/output_hashes.py --src PARENT_TREE --seeds 1,2,3 > before.txt
    python tools/output_hashes.py --src . --seeds 1,2,3 > after.txt
    diff before.txt after.txt

A --seeds list that is not comma-separated integers, a tree without
src/qmemcheck, or a call that exits with anything but 0 or 2 (a failed
check, whose documents are still written), stops the tool with exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

UNHASHED = {"run_meta.json"}


def hash_lines(src: Path, seeds: list[int]) -> list[str]:
    """The "<workload> <seed> <document> <sha256>" lines of every workload at every seed."""
    package = Path(src).resolve() / "src" / "qmemcheck"
    if not package.is_dir():
        raise RuntimeError(f"no package at {package}")
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for name, workload in WORKLOADS.items():
                run_dir = Path(tmp) / f"{name}-{seed}"
                out_dir = run_dir / "out"
                out_dir.mkdir(parents=True)
                config_path = run_dir / "config.json"
                config_path.write_text(json.dumps(workload.config))
                for argv in workload.calls(seed, str(config_path), str(out_dir)):
                    proc = subprocess.run(
                        [sys.executable, "-m", "qmemcheck.cli", *argv], capture_output=True, env=env, cwd=run_dir,
                    )
                    if proc.returncode not in (0, 2):
                        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.decode()}")
                    lines.append(f"{name} {seed} {argv[0]}:stdout {hashlib.sha256(proc.stdout).hexdigest()}")
                for path in sorted(out_dir.iterdir()):
                    if path.name not in UNHASHED:
                        lines.append(f"{name} {seed} {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path("."), help="source tree whose src/qmemcheck runs")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated seeds (default 1,2,3)")
    args = parser.parse_args(argv)
    try:
        seeds = [int(seed) for seed in args.seeds.split(",")]
    except ValueError:
        print(f"usage: --seeds takes comma-separated integers, got {args.seeds!r}", file=sys.stderr)
        return 1
    try:
        lines = hash_lines(args.src, seeds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
