"""The README's documented command lines run as documented.

The ``verify list``, ``verify show`` and ``--mode exact`` lines of the
README's "Command line" block are read from the file and run through
``cli.main``, with ``--out`` sent to a temporary directory.  Each must exit
0 without raising, so a documented example cannot crash unnoticed.  The
full-suite and ``--m 2`` lines are covered, with their reports, by
``test_acceptance_09`` and ``test_acceptance_06``.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from semicov import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _command_lines() -> list[list[str]]:
    block = README.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [shlex.split(line)[2:] for line in lines if line.startswith("$ verify ")]


CHECKED = [argv for argv in _command_lines() if argv[0] != "run" or "exact" in argv]


def test_readme_block_has_the_checked_lines():
    assert [argv[:2] for argv in CHECKED] == [["list"], ["show", "ex5.3"], ["run", "--entry"]]


@pytest.mark.parametrize("argv", CHECKED, ids=" ".join)
def test_readme_command_line_exits_0(argv, tmp_path, capsys):
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv = argv[:i] + [str(tmp_path / argv[i])] + argv[i + 1 :]
    assert cli.main(argv) == 0
    capsys.readouterr()
