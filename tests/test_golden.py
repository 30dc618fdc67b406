"""Byte-for-byte pins of results.json and results.csv for small configs.

Each config below covers one attack kind or session shape. The test parses
the config from its JSON form, runs it, and compares both output documents
with the files under tests/golden/. Running this module as a script writes
those files from the current code:

    PYTHONPATH=src python tests/test_golden.py

It writes a config's files when they are missing or when its golden JSON
carries an older schema than RESULTS_SCHEMA. It refuses, with exit 1 naming
the file, to change a golden file of the current schema: the goldens change
only together with a deliberate schema bump.
"""

import json
import sys
from pathlib import Path

import pytest

from qmemcheck.harness import RESULTS_SCHEMA, ExperimentConfig, run_experiment

GOLDEN_DIR = Path(__file__).parent / "golden"

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

CONFIGS = {
    "noop-n3": {"n": 3, "trials": 200, "seed": 1},
    "substitute-random-n4": {
        "n": 4, "k": 7, "attack": {"kind": "substitute", "target": "random"}, "trials": 300, "seed": 2,
    },
    "substitute-explicit-n4": {
        "n": 4, "k": 3, "message": "0110", "attack": {"kind": "substitute", "target": "1010"},
        "trials": 300, "seed": 3,
    },
    "flipcount-uniform-n6": {
        "n": 6, "attack": {"kind": "flip_count", "bits_per_step": 4}, "steps": 3, "trials": 200, "seed": 4,
    },
    "flipcount-prefix-cycle-n5": {
        "n": 5, "attack": {"kind": "flip_count", "bits_per_step": 3, "policy": "prefix"}, "steps": 2,
        "retrieve_index": "cycle", "trials": 200, "seed": 5,
    },
    "flipcount-uniform-n1": {
        "n": 1, "k": 1, "attack": {"kind": "flip_count", "bits_per_step": 1}, "steps": 2,
        "record_trials": True, "trials": 200, "seed": 11,
    },
    "incremental-uniform-n3": {
        "n": 3, "k": 1, "attack": {"kind": "incremental", "deltas": [0.25, 0.25]}, "trials": 400, "seed": 6,
    },
    "incremental-prefix-reach-n3": {
        "n": 3, "k": 2,
        "attack": {"kind": "incremental", "deltas": [0.25, 0.25], "policy": "prefix", "require_reach": True},
        "trials": 200, "seed": 7,
    },
    "honest-mixed-n8": {"n": 8, "script": MIXED_SCRIPT, "record_trials": True, "trials": 60, "seed": 8},
    "script-attack-n3": {
        "n": 3, "k": 2, "attack": {"kind": "flip_count", "bits_per_step": 1},
        "script": [
            {"op": "store", "message": "101"},
            {"op": "retrieve", "index": 0},
            {"op": "attack"},
            {"op": "retrieve", "index": "cycle"},
            {"op": "store"},
            {"op": "attack"},
            {"op": "retrieve"},
        ],
        "record_trials": True, "trials": 40, "seed": 9,
    },
    "script-store-reject-n3": {
        "n": 3, "k": 2, "attack": {"kind": "flip_count", "bits_per_step": 2},
        "script": [
            {"op": "store"},
            {"op": "attack"},
            {"op": "store", "message": "011"},
            {"op": "retrieve", "index": 1},
            {"op": "attack"},
            {"op": "retrieve"},
        ],
        "record_trials": True, "trials": 60, "seed": 10,
    },
}


def render(name: str) -> dict[str, str]:
    result = run_experiment(ExperimentConfig.from_dict(CONFIGS[name]))
    return {"json": result.results_json(), "csv": result.render_csv()}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_results_match_golden(name):
    rendered = render(name)
    for ext, text in rendered.items():
        expected = (GOLDEN_DIR / f"{name}.results.{ext}").read_bytes()
        assert text.encode() == expected, f"{name}.results.{ext} differs from the golden file"


def test_rewrite_only_at_a_schema_bump(tmp_path):
    name = "noop-n3"
    json_path = tmp_path / f"{name}.results.json"
    assert rewrite(name, tmp_path) == []  # missing files are written
    fresh = json_path.read_bytes()
    assert fresh == (GOLDEN_DIR / json_path.name).read_bytes()
    json_path.write_bytes(fresh + b"\n")  # still the current schema, but different
    assert rewrite(name, tmp_path) == [json_path]
    assert json_path.read_bytes() == fresh + b"\n"  # refused: left as it was
    json_path.write_text(json.dumps({"schema": "qmemcheck.results.v2"}))
    assert rewrite(name, tmp_path) == []
    assert json_path.read_bytes() == fresh  # an older schema is rewritten


def rewrite(name: str, golden_dir: Path = GOLDEN_DIR) -> list[Path]:
    """Write name's golden files where the guard allows; return the existing
    files of the current schema that the current code would change."""
    json_path = golden_dir / f"{name}.results.json"
    current = json_path.exists() and json.loads(json_path.read_text()).get("schema") == RESULTS_SCHEMA
    refused = []
    for ext, text in render(name).items():
        path = golden_dir / f"{name}.results.{ext}"
        if not (current and path.exists()):
            path.write_bytes(text.encode())
            print(f"wrote {path.name}")
        elif path.read_bytes() != text.encode():
            refused.append(path)
    return refused


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    refused = [path for name in sorted(CONFIGS) for path in rewrite(name)]
    for path in refused:
        print(f"refused: {path} is {RESULTS_SCHEMA} and would change; bump the schema first", file=sys.stderr)
    sys.exit(1 if refused else 0)
