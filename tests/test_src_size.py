"""``src/`` stays within the size gate of ROADMAP aim 3.

Lines are counted as the ROADMAP counts them,
``cat src/semicov/*.py src/semicov/*/*.py | wc -l``: newline characters over
the package modules and the modules one directory below them.  A change that
adds code pays for its lines with deletions.
"""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "semicov"
GATE = 5393


def test_src_lines_within_gate():
    files = sorted(SRC.glob("*.py")) + sorted(SRC.glob("*/*.py"))
    lines = sum(p.read_bytes().count(b"\n") for p in files)
    assert files and lines <= GATE, "src/ has %d lines, gate %d" % (lines, GATE)
