"""README.md stays runnable: every python block runs, and every json block is a
valid experiment config, so an API change cannot leave the docs stale."""

import json
import re
from pathlib import Path

import pytest

from qmemcheck.harness import ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"
_TEXT = README.read_text()
# (language, body, line of the body's first line in README.md)
BLOCKS = [
    (m.group(1), m.group(2), _TEXT.count("\n", 0, m.start(2)) + 1)
    for m in re.finditer(r"^```(\w+)\n(.*?)^```$", _TEXT, flags=re.M | re.S)
]


def blocks(lang: str) -> list:
    """The blocks of one language, each named by its ordinal among them (README.md:python[1]
    is the first python block), so an edit above a block does not rename its test."""
    bodies = [(body, line) for tag, body, line in BLOCKS if tag == lang]
    return [pytest.param(body, line, id=f"README.md:{lang}[{i}]") for i, (body, line) in enumerate(bodies, 1)]


def test_blocks_found():
    assert len(blocks("python")) >= 2 and len(blocks("json")) >= 1


@pytest.mark.parametrize(("source", "line"), blocks("python"))
def test_python_block_runs(source, line):
    # padded so that a traceback points at the README line
    exec(compile("\n" * (line - 1) + source, str(README), "exec"), {})


@pytest.mark.parametrize(("text", "line"), blocks("json"))
def test_json_block_is_a_config(text, line):
    ExperimentConfig.from_dict(json.loads(text))
