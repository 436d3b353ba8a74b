"""Every module-level import in ``src/semicov`` and ``tests/`` is used.

An import counts as used when its bound name is read anywhere in the module,
is listed in the module's ``__all__``, or is one of the deliberate re-exports
named in ``REEXPORTS``.  The scan is syntactic (``ast``), so it needs no
linter and imports none of the scanned modules.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted((ROOT / "src" / "semicov").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))

# (module path relative to the repository root, imported name) kept on purpose
REEXPORTS = {
    ("src/semicov/covariants.py", "resolve_mode"),
    ("src/semicov/semidirect.py", "rank"),
    ("src/semicov/verify.py", "rank"),
}


def _module_imports(body):
    """(bound name, line) of each import at module level, also inside
    top-level ``if`` and ``try`` blocks."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            blocks = [node.body, node.orelse]
            if isinstance(node, ast.Try):
                blocks += [h.body for h in node.handlers] + [node.finalbody]
            for block in blocks:
                yield from _module_imports(block)


def _dunder_all(tree) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def unused_imports(source: str, kept: set[str] = frozenset()) -> list[tuple[str, int]]:
    """(name, line) of each module-level import that the module never reads."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    kept = set(kept) | _dunder_all(tree)
    return [(name, line) for name, line in _module_imports(tree.body)
            if name not in read and name not in kept]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_module_imports(path):
    where = path.relative_to(ROOT).as_posix()
    kept = {name for module, name in REEXPORTS if module == where}
    assert unused_imports(path.read_text(), kept) == []


def test_scanner_flags_unused_imports():
    source = (
        "import os\nimport os.path as osp\nimport sys\n"
        "from typing import Any, List\n"
        "try:\n    import json\nexcept ImportError:\n    json = None\n"
        "__all__ = ['Any']\nprint(sys.argv, osp)\n"
        "def f():\n    import re\n"
    )
    assert unused_imports(source) == [("os", 1), ("List", 4), ("json", 6)]
    assert unused_imports(source, {"os", "List"}) == [("json", 6)]
