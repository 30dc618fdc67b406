import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment does not hide the code

# a comment line


class Shape:
    """Class docstring."""

    sides = 4

    def area(self, x):
        """Function docstring,
        also over two lines."""
        text = """a string that is not a docstring
        counts on every line"""
        return math.prod(
            [x, x]
        )
'''


def test_counts_code_outside_comments_docstrings_and_blanks():
    # import, class, sides, def, the string's 2 lines, return and its 2 continuation lines
    assert code_lines.code_lines(FIXTURE) == 9


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["     9  a.py", "     1  b.py", "    10  total"]


def test_a_path_without_modules_exits_1(tmp_path, capsys):
    # a mistyped path must not pass for a count of 0
    (tmp_path / "notes.txt").write_text("not python\n")
    for path in (tmp_path / "missing", tmp_path / "notes.txt", tmp_path):
        assert code_lines.main([str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
