"""tools/seed_sweep.py: one tree's workload documents checked at every seed of a range."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("seed_sweep", ROOT / "tools" / "seed_sweep.py")
seed_sweep = importlib.util.module_from_spec(spec)
spec.loader.exec_module(seed_sweep)


def test_a_clean_sweep(capsys):
    assert seed_sweep.main(["--src", str(ROOT), "--workload", "substitute-n4", "--seeds", "3:6"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("substitute-n4 seeds=3:6 failed=0 []\n", "")
    assert not any(name.split(".")[0] == seed_sweep.PACKAGE for name in sys.modules)  # the copy is unloaded


def test_failing_seeds_are_listed(capsys, monkeypatch):
    # a check that fails every odd seed's document
    def check(workload, doc_name, doc):
        return ["odd seed"] if doc["config"]["seed"] % 2 else []

    monkeypatch.setattr(seed_sweep, "check_document", check)
    assert seed_sweep.main(["--src", str(ROOT), "--workload", "substitute-n4", "--seeds", "0:4"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "substitute-n4 1 odd seed", "substitute-n4 3 odd seed", "substitute-n4 seeds=0:4 failed=2 [1, 3]",
    ]


@pytest.mark.parametrize(
    "args, message",
    [
        (["--src", "{tmp}", "--workload", "substitute-n4", "--seeds", "0:2"], "error: no package at "),
        (["--src", str(ROOT), "--workload", "no-such-workload", "--seeds", "0:2"], "error: unknown workload 'no-such-workload'"),
        (["--src", str(ROOT), "--workload", "substitute-n4", "--seeds", "2:2"], "error: --seeds must be A:B with 0 <= A < B"),
        (["--src", str(ROOT), "--workload", "substitute-n4", "--seeds=-1:2"], "error: --seeds must be A:B with 0 <= A < B"),
        (["--src", str(ROOT), "--workload", "substitute-n4", "--seeds", "0,1"], "error: --seeds must be A:B with 0 <= A < B"),
    ],
)
def test_bad_arguments_exit_1_before_any_call(args, message, capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a tree was swept")

    monkeypatch.setattr(seed_sweep, "sweep", refuse)
    assert seed_sweep.main([arg.format(tmp=tmp_path) for arg in args]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(message)
