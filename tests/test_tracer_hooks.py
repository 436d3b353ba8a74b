"""Every hook of the benchmark's layer tracer names a live semicov function.

``bench/tracer.py`` patches the functions listed in its ``HOOKS`` table.  A
function renamed or deleted in ``semicov`` would otherwise only show up when
the benchmark itself is tested.  The table is read with ``ast``, so nothing
under ``bench/`` is imported, and each path is resolved the way the tracer
resolves it: attribute by attribute from the ``semicov`` package, through a
class's own ``__dict__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import semicov
import semicov.verify  # noqa: F401 (imports every module the hooks name)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _hooks() -> tuple:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no HOOKS table in %s" % TRACER)


def test_tracer_hooks_resolve():
    hooks = _hooks()
    assert hooks
    missing = []
    for path, _, _ in hooks:
        obj = semicov
        for part in path.split("."):
            owner = vars(obj) if isinstance(obj, type) else obj.__dict__
            if part not in owner:
                missing.append(path)
                break
            obj = owner[part]
        else:
            if not callable(obj):
                missing.append(path)
    assert not missing, missing
