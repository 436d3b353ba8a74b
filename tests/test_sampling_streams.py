"""Every random point in ``src/semicov`` comes from ``poly.CheckContext``.

``sampling.derive_rng`` and ``sampling.rand_vector`` make the streams;
``CheckContext.rng`` and ``CheckContext.draw`` are their only callers, so
every sampled row, estimators included, reads the run's seed, sample count
and bound.  A reference is a name, an attribute, an imported name or a
definition.  ``sampling.py`` defines them, and the module of
``CheckContext`` may import them from ``.sampling``; nothing else may name
them.  The scan is syntactic (``ast``) and imports none of the scanned
modules.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semicov"
SCANNED = [p for p in sorted(SRC.rglob("*.py")) if p.name != "sampling.py"]
NAMES = ("derive_rng", "rand_vector")
OWNER = ("src/semicov/poly.py", "CheckContext")


def _named(node) -> str | None:
    """The stream function ``node`` refers to, if any."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.alias):
        name = node.name
    elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        name = node.name
    else:
        return None
    return name if name in NAMES else None


def stray_references(source: str, owner: str | None = None) -> list[tuple[str, int]]:
    """(name, line) of each reference to ``NAMES`` outside the class
    ``owner`` and, when there is an owner, outside ``from .sampling import``."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == owner:
            allowed.update(id(n) for n in ast.walk(node))
        elif owner and isinstance(node, ast.ImportFrom) and node.module == "sampling":
            allowed.update(id(n) for n in ast.walk(node))
    return sorted(
        (name, node.lineno)
        for node in ast.walk(tree)
        if (name := _named(node)) and id(node) not in allowed
    )


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_random_points_come_from_check_context(path):
    where = path.relative_to(ROOT).as_posix()
    owner = OWNER[1] if where == OWNER[0] else None
    assert stray_references(path.read_text(), owner) == []


def test_owner_draws_through_sampling():
    tree = ast.parse((ROOT / OWNER[0]).read_text())
    owner = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == OWNER[1])
    assert {_named(n) for n in ast.walk(owner)} >= set(NAMES)


def test_scanner_flags_stray_streams():
    source = (
        "from .sampling import derive_rng, rand_vector as rv\n"
        "from . import sampling\n"
        "class CheckContext:\n"
        "    def draw(self):\n"
        "        return rand_vector\n"
        "def f():\n"
        "    return sampling.derive_rng(0)\n"
    )
    assert stray_references(source) == [
        ("derive_rng", 1), ("derive_rng", 7), ("rand_vector", 1), ("rand_vector", 5)
    ]
    assert stray_references(source, "CheckContext") == [("derive_rng", 7)]
