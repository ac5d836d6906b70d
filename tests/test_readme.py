"""The README stays runnable: its library example gives the values its
comments show, and every command line it lists parses."""

import re
import shlex
from pathlib import Path

import pytest

from askzeta.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_block(heading: str, language: str) -> list[str]:
    """The lines of the first `language` code block under `heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    match = re.search(rf"```{language}\n(.*?)```", section, re.S)
    return match.group(1).splitlines()


def shown(value) -> str:
    """A value as the README's comments write it: lists by their elements'
    str (1/3, not Fraction(1, 3)), anything else by its repr."""
    if isinstance(value, list):
        return "[" + ", ".join(map(str, value)) + "]"
    return repr(value)


def test_library_overview_gives_the_commented_values():
    namespace = {}
    checked = 0
    previous = None
    for line in code_block("Library overview", "python"):
        code, _, comment = line.partition("  # ")
        if not comment:
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        if comment.startswith("same"):
            assert value == previous, line
        else:
            assert shown(value) == comment.strip(), line
        checked += 1
        previous = value
    assert checked == 5  # every commented line was compared


@pytest.mark.parametrize(
    "line",
    [line for line in code_block("Command line", "sh") if line.startswith("askzeta ")],
)
def test_command_line_parses(line):
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert args.command == shlex.split(line)[1]
