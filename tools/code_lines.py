"""Count the code lines of each Python module in a directory.

A code line is a non-blank line that holds some token other than a comment,
outside every docstring (the string that opens a module, class or function
body). A statement that spans lines counts each of them, and so does a
multi-line string that is not a docstring. Usage:

    python tools/code_lines.py src/qmemcheck

prints one "lines  module" row per *.py file, sorted by name, then the total.
A DIRECTORY that is not a directory, or holds no *.py file, exits 1 with one
line on stderr, so a mistyped path cannot pass for a count of 0.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: code_lines.py DIRECTORY", file=sys.stderr)
        return 1
    modules = sorted(Path(argv[0]).glob("*.py")) if Path(argv[0]).is_dir() else []
    if not modules:
        print(f"error: {argv[0]} is not a directory with *.py files", file=sys.stderr)
        return 1
    total = 0
    for path in modules:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
