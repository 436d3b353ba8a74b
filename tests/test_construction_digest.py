"""Catalog constructions against frozen digests.

Each digest hashes what a construction hands the core library: the
algebra's name, basis and structure constants, its factor bookkeeping, the
module's label and action matrices (with the type of every entry, so an int
never silently becomes a Fraction), each family member and negative control
evaluated at a fixed integer point, the independence witness, and the
numerology.  Table rows hash their printed columns, links evaluated at fixed
parameters, and the module a module row builds.  ``MODULES`` hashes the
library's power modules and form algebras outside the catalog's defaults:
symmetric and exterior powers at d = 2, 3, and so, sp under non-default
forms.  A refactor of the catalog or of those builders must leave every
digest unchanged.

Refreeze (only for an intended change, stated in CHANGES.md) with
``PYTHONPATH=src python tests/test_construction_digest.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from semicov.catalog import all_rows, build_construction, get_entry
from semicov.lie import defining, ext_power, sl, so, sp, sym_power
from semicov.linalg import Matrix

DATA = Path(__file__).resolve().parent / "data" / "construction-digests.json"

# every entry at its defaults, then larger n, m and k
INSTANCES = [
    ("ex-adjoint", {}),
    ("ex5.1", {}),
    ("ex5.2", {}),
    ("ex5.3", {}),
    ("ex5.3/gl", {}),
    ("ex6.1", {}),
    ("ex6.2", {}),
    ("ex6.3/i", {}),
    ("ex6.3/ii", {}),
    ("ex6.3/iii", {}),
    ("ex6.4", {}),
    ("ex-adjoint", {"n": 4}),
    ("ex5.1", {"n": 4}),
    ("ex5.3", {"n": 3, "k": 2}),
    ("ex5.3", {"n": 2, "k": 3}),
    ("ex5.3/gl", {"n": 3, "k": 2}),
    ("ex6.1", {"n": 6}),
    ("ex6.2", {"n": 4}),
    ("ex6.2", {"n": 5}),
    ("ex6.3/i", {"m": 2}),
    ("ex6.3/ii", {"m": 2}),
    ("ex6.3/iii", {"m": 2}),
    ("ex6.4", {"n": 3}),
]

LINK_PARAMS = {"n": 5, "m": 2, "k": 3}

# symmetric and skew nondegenerate forms, none of them the default one
SYM_FORM = Matrix([[2, 1, 0], [1, 1, 0], [0, 0, -3]])
ANTI_DIAGONAL = Matrix([[int(i + j == 3) for j in range(4)] for i in range(4)])
SKEW_FORM = Matrix([[0, 1, 2, 0], [-1, 0, 0, 3], [-2, 0, 0, 1], [0, -3, -1, 0]])

MODULES = {
    "sym_power sl3 d=2": lambda: sym_power(defining(sl(3)), 2),
    "sym_power sl3 d=3": lambda: sym_power(defining(sl(3)), 3),
    "sym_power so3-form d=2": lambda: sym_power(defining(so(3, SYM_FORM)), 2),
    "ext_power sl4 d=2": lambda: ext_power(defining(sl(4)), 2),
    "ext_power sl4 d=3": lambda: ext_power(defining(sl(4)), 3),
    "ext_power sp4-form d=2": lambda: ext_power(defining(sp(4, SKEW_FORM)), 2),
    "so3 form": lambda: defining(so(3, SYM_FORM)),
    "so4 form": lambda: defining(so(4, ANTI_DIAGONAL)),
    "sp4 form": lambda: defining(sp(4, SKEW_FORM)),
    "sp2 form": lambda: defining(sp(2, Matrix([[0, 3], [-3, 0]]))),
}


def _scalar(x) -> str:
    return "%s:%s" % (type(x).__name__, x)


def _matrix(m) -> list:
    return [[_scalar(x) for x in row] for row in m.rows]


def _point(dim: int) -> list[int]:
    return [(7 * i + 3) % 11 - 5 for i in range(dim)]


def _module(rep) -> dict:
    g = rep.algebra
    return {
        "algebra": g.name,
        "dim": g.dim,
        "matrix_size": g.matrix_size,
        "basis": [_matrix(b) for b in g.basis] if g.basis is not None else None,
        "brackets": sorted(
            (a, b, sorted((c, _scalar(v)) for c, v in e.items())) for (a, b), e in g.brackets.items()
        ),
        "factors": [(f.name, f.basis_offset, f.block_offset) for f in g.factors],
        "label": rep.label,
        "action": [_matrix(m) for m in rep.action],
    }


def _construction(eid: str, params: dict) -> dict:
    cons = build_construction(get_entry(eid), params)
    v = _point(cons.module.dim_v)
    return {
        "entry": cons.entry_id,
        "params": cons.params,
        "module": _module(cons.module),
        "family": [(F.name, F.degree, _matrix(F.matrix_at(v))) for F in cons.family],
        "controls": [
            (c.name, c.reason, _matrix(c.covariant.matrix_at(v))) for c in cons.controls
        ],
        "witness": None if cons.witness is None else [_scalar(x) for x in cons.witness],
        "expected": repr(cons.expected),
        "scope": [cons.scope, cons.scope_label, cons.complement, cons.complement_label],
        "extras": [x.name for x in cons.extras],
        "kernel_span": cons.kernel_span,
    }


def _row(row) -> dict:
    spec = row.module_spec
    return {
        "id": row.id,
        "table": row.table,
        "printed": row.printed,
        "note": row.note,
        "links": [
            (
                link.entry_id,
                link.pinned,
                link.minimum,
                link.values({**LINK_PARAMS, **(link.pinned or {})}) if link.values else None,
            )
            for link in row.links
        ],
        "module_spec": None
        if spec is None
        else (
            spec.default_params,
            spec.expected(dict(spec.default_params)),
            _module(spec.build(dict(spec.default_params))),
        ),
    }


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _key(eid: str, params: dict) -> str:
    return eid + "".join(" %s=%d" % kv for kv in sorted(params.items()))


def _compute(case: str) -> dict:
    if case == "entries":
        return {_key(eid, p): _digest(_construction(eid, p)) for eid, p in INSTANCES}
    if case == "rows":
        return {row.id: _digest(_row(row)) for row in all_rows()}
    return {name: _digest(_module(build())) for name, build in MODULES.items()}


def compute() -> dict:
    return {k: v for case in ("entries", "rows", "modules") for k, v in _compute(case).items()}


def test_frozen_digests_cover_every_entry_and_row():
    frozen = json.loads(DATA.read_text())
    keys = {_key(eid, p) for eid, p in INSTANCES} | {row.id for row in all_rows()} | set(MODULES)
    assert set(frozen) == keys and len(keys) == 23 + 29 + 10


@pytest.mark.parametrize("case", ["entries", "rows", "modules"])
def test_constructions_match_frozen_digests(case):
    frozen = json.loads(DATA.read_text())
    got = _compute(case)
    assert got == {k: frozen[k] for k in got}


if __name__ == "__main__":
    DATA.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
