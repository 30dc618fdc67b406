"""tools/ab_calls.py: one tree's calls against another's, alternating in one process."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab_calls", ROOT / "tools" / "ab_calls.py")
ab_calls = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_calls)


def test_a_tree_against_itself(capsys):
    assert ab_calls.main(["--a", str(ROOT), "--b", str(ROOT), "--workload", "substitute-n4", "--pairs", "3"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert re.fullmatch(
        r"substitute-n4 pairs=3 a_ms=\d+\.\d{4} b_ms=\d+\.\d{4} change=[+-]\d+\.\d% b_faster=[0-3]/3 \(\d+%\)\n", out
    )
    assert not any(name.split(".")[0] in ab_calls.PACKAGES for name in sys.modules)  # both copies unloaded


@pytest.mark.parametrize(
    "args, message",
    [
        (["--a", "{tmp}", "--workload", "substitute-n4"], "error: no package at "),
        (["--b", "{tmp}", "--workload", "substitute-n4"], "error: no package at "),
        (["--workload", "no-such-workload"], "error: unknown workload 'no-such-workload'"),
        (["--workload", "substitute-n4", "--pairs", "0"], "error: --pairs must be >= 1, got 0"),
    ],
)
def test_bad_arguments_exit_1_before_any_call(args, message, capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a tree was loaded")

    monkeypatch.setattr(ab_calls, "load_clis", refuse)
    flags = {"--a": str(ROOT), "--b": str(ROOT)}
    flags.update({flag: value.format(tmp=tmp_path) for flag, value in zip(args[::2], args[1::2])})
    assert ab_calls.main([part for pair in flags.items() for part in pair]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(message)


def test_the_package_imports_itself_relatively():
    # a copy under another name must not load the installed package
    for path in sorted((ROOT / "src" / "qmemcheck").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not any(name.split(".")[0] == "qmemcheck" for name in names), f"{path.name}:{node.lineno}"
