"""Every module-level import in ``src/semicov`` and ``tests/`` is used, no
``semicov`` module takes a private name from another, and only ``poly``
reads its packed exponent keys.

An import counts as used when its bound name is read anywhere in the module,
is listed in the module's ``__all__``, or is one of the deliberate re-exports
named in ``REEXPORTS``.  A private name starts with one underscore; it stays
inside its module (``linalg._minors`` serves ``det``, ``adjugate`` and
``minor_skew`` there and nowhere else).  The names that decode a key's layout
(``LAYOUT``) stay in ``poly``: other modules make keys with ``unit_key`` and
add them, and differentiate through ``poly.derivative_along``.  The scans
are syntactic (``ast``), so they need no linter and import none of the
scanned modules.
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


def private_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of each private name the module takes from another
    ``semicov`` module, at any depth: ``from .mod import _name``, or
    ``mod._name`` on a module bound by ``from . import mod``."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "semicov"):
            for alias in node.names:
                if _private(alias.name):
                    found.append((alias.name, node.lineno))
                if node.module is None or node.module == "semicov":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append((node.attr, node.lineno))
    return sorted(found, key=lambda t: t[1])


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "semicov").rglob("*.py")),
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_private_names_across_modules(path):
    assert private_imports(path.read_text()) == []


def test_scanner_flags_private_imports():
    source = (
        "from __future__ import annotations\n"
        "from .linalg import _minors, det\n"
        "from . import poly\n"
        "from semicov.poly import _wrap as w\n"
        "from os import _exit\n"
        "def f(m):\n    from ..linalg import _eliminate\n"
        "    return poly._nonzero_point(m), m._private, poly.__name__\n"
    )
    assert private_imports(source) == [
        ("_minors", 2), ("_wrap", 4), ("_eliminate", 7), ("_nonzero_point", 8)]


LAYOUT = {"FIELD_BITS", "FIELD_MASK", "field_shift", "pack", "unpack"}


def layout_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of each ``LAYOUT`` name the module takes from ``poly``,
    at any depth: ``from .poly import pack``, or ``poly.pack`` on a module
    bound by ``from . import poly``."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "semicov"):
            if (node.module or "").split(".")[-1] == "poly":
                found += [(alias.name, node.lineno) for alias in node.names if alias.name in LAYOUT]
            modules.update(alias.asname or alias.name for alias in node.names if alias.name == "poly")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in LAYOUT
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append((node.attr, node.lineno))
    return sorted(found, key=lambda t: t[1])


@pytest.mark.parametrize("path", [p for p in sorted((ROOT / "src" / "semicov").rglob("*.py"))
                                  if p.name != "poly.py"],
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_key_layout_outside_poly(path):
    assert layout_imports(path.read_text()) == []


def test_scanner_flags_layout_imports():
    source = (
        "from .poly import (\n    FIELD_BITS, MultiPoly, field_shift, unit_key,\n)\n"
        "from . import poly as P\n"
        "from semicov.poly import unpack as u\n"
        "from .linalg import pack\n"
        "def f(k):\n    from ..poly import FIELD_MASK\n"
        "    return P.pack(k), P.unit_key(2, 0), k.unpack\n"
    )
    assert layout_imports(source) == [
        ("FIELD_BITS", 1), ("field_shift", 1), ("unpack", 5), ("FIELD_MASK", 8), ("pack", 9)]
