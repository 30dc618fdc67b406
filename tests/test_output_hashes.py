"""tools/output_hashes.py: one hash line per output document, the same on every run of one tree."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("output_hashes", ROOT / "tools" / "output_hashes.py")
output_hashes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_hashes)


def test_two_runs_print_the_same_lines(capsys):
    assert output_hashes.main(["--src", str(ROOT), "--seeds", "1"]) == 0
    first = capsys.readouterr().out
    assert output_hashes.main(["--src", str(ROOT), "--seeds", "1"]) == 0
    assert capsys.readouterr().out == first
    rows = [line.split() for line in first.splitlines()]
    assert all(len(row) == 4 and row[1] == "1" for row in rows)
    assert {row[0] for row in rows} == set(output_hashes.WORKLOADS)
    documents = {row[2] for row in rows}
    assert {"simulate:stdout", "results.json", "results.csv", "lemma2.json", "oracle.json"} <= documents
    assert "run_meta.json" not in documents  # it holds timings


def test_a_tree_without_the_package_exits_1(capsys, tmp_path):
    assert output_hashes.main(["--src", str(tmp_path), "--seeds", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: no package at ")


@pytest.mark.parametrize("seeds", ["x", "1,,2", ""])
def test_a_malformed_seed_list_exits_1_before_any_call(seeds, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a subprocess was started")

    monkeypatch.setattr(output_hashes.subprocess, "run", refuse)
    assert output_hashes.main(["--src", str(ROOT), "--seeds", seeds]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("usage: --seeds ")
