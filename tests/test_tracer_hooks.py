"""Every hook of the benchmark's layer tracer names a live semicov function.

``bench/tracer.py`` patches the functions listed in its ``HOOKS`` table.  A
function renamed or deleted in ``semicov`` would otherwise only show up when
the benchmark itself is tested.  The table is read with ``ast``, so nothing
under ``bench/`` is imported, and each path is resolved the way the tracer
resolves it: attribute by attribute from the ``semicov`` package, through a
class's own ``__dict__``.

The ``record`` fixture of ``tests/conftest.py`` patches by the same paths: it
sees a call through any binding, not the first build of a cached algebra,
and it puts every binding back.
"""

from __future__ import annotations

import ast
import functools
import sys
from pathlib import Path

import semicov
import semicov.covariants as covariants
import semicov.lie as lie
from semicov.catalog import build_construction, get_entry
from semicov.verify import RunConfig, run_table_row

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


def _functions() -> dict:
    return {(name, attr): val for name, mod in list(sys.modules.items()) if name.split(".")[0] == "semicov"
            for attr, val in vars(mod).items() if callable(val)}


def test_record_sees_every_binding_after_the_catalog_is_built(monkeypatch, request):
    before = _functions()
    # cold so and sp caches: the first build of table1/1a's so5 and so3 runs
    # a kernel and a rank each, which the fixture builds before it records
    for name in ("_default_so", "_default_sp"):
        monkeypatch.setattr(lie, name, functools.cache(getattr(lie, name).__wrapped__))
    record = request.getfixturevalue("record")
    cons = build_construction(get_entry("ex5.2"), {})
    calls = record("linalg.rank", "linalg.rank_and_kernel")
    # linalg.rank, called as covariants.rank
    r = covariants.independence_rank_at(cons.family, list(range(1, cons.module.dim_v + 1)))
    assert [(c.args[0].ncols, c.result) for c in calls["linalg.rank"]] == [(len(cons.family), r)]
    report = run_table_row("table1/1a", RunConfig())
    assert all(c["verdict"] != "fail" for c in report["checks"])
    # the orbit map at v1 (dim V x dim g), then rank A of the certificate
    assert [(c.args[0].nrows, c.args[0].ncols) for c in calls["linalg.rank_and_kernel"]] == [(15, 13)]
    assert [path for path, _ in record.log] == ["linalg.rank", "linalg.rank_and_kernel", "linalg.rank"]
    monkeypatch.undo()
    assert _functions() == before
