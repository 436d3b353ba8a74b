"""Every FAIL branch of a verify row, run once.

The catalog passes every row, so a failing branch runs only when a premise
is broken on purpose.  Each case below breaks one: a fake ``Construction``
(another module, a wrong expectation, a duplicated or shortened family, a
zero witness, a complement on which the family is equivariant, a control
that holds), a fake ``ModuleSpec`` or printed table value, or a
monkeypatched estimator (the stabiliser sample, the index estimate).  Each
case asserts that its row says ``fail`` with its detail, and where the
witness is a point of V it re-evaluates the broken quantity there.  The
table comparison case goes through ``cli.main`` and exits 1.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from semicov import cli, verify
from semicov.catalog import build_construction, get_entry, get_row, rows_for_entry
from semicov.catalog.families import Control
from semicov.covariants import equivariance_check, independence_rank_at, kernel_phi_check
from semicov.lie import Subspace, defining, is_abelian, sl, stabiliser, stabiliser_sample
from semicov.poly import CheckContext
from semicov.verify import Report, RunConfig, run_entry, run_table_row, to_text

CTX = CheckContext()


def _adjoint(n: int = 3):
    """ex-adjoint: sl_n on itself, l = n - 1 covariants."""
    return build_construction(get_entry("ex-adjoint"), {"n": n})


def _expect(cons, **changes):
    return replace(cons, expected=replace(cons.expected, **changes))


def _row(report: dict, name: str) -> dict:
    return next(c for c in report["checks"] if c["name"] == name)


def _run_adjoint(monkeypatch, cons, **knobs) -> dict:
    """run_entry on ex-adjoint at n=2 with ``cons`` for its construction."""
    monkeypatch.setattr(verify, "build_construction", lambda entry, params: cons)
    return run_entry("ex-adjoint", RunConfig(overrides=(("n", 2),), **knobs))


def audit_module_dimension(monkeypatch, capsys):
    # at n=5, which has no frozen manifest line, only the module is compared
    cons = replace(_adjoint(), module=defining(sl(3)), params={"n": 5})
    row = verify._check_construction_audit(cons)
    assert row["witness"] == ["module dimension 3 != expected 8"]
    return row, "module dimension 3 != expected 8"


def audit_quotient_dimension(monkeypatch, capsys):
    row = verify._check_construction_audit(_expect(_adjoint(), quotient_dim=3))
    assert row["witness"] == ["quotient dim 3 != dim V - dim g + l = 2",
                              "manifest quotient_dim=2 but computed 3"]
    return row, "manifest quotient_dim=2 but computed 3"


def gs_non_abelian(monkeypatch, capsys):
    # the zero point of the adjoint sl2 module: g_x = sl2, expected as l = 3
    cons = _expect(_adjoint(2), rank=3)
    zero = [0, 0, 0]
    row = verify._check_gs(cons, [(zero, stabiliser(cons.module, zero))])
    kind, v = row["witness"]
    assert not is_abelian(cons.algebra, stabiliser(cons.module, v))
    return row, "non-abelian stabiliser"


def gs_not_closed(monkeypatch, capsys):
    # a broken stabiliser estimate: span(E, F) in sl2, without H = [E, F]
    cons = _expect(_adjoint(2), rank=2)
    broken = Subspace([[1, 0, 0], [0, 1, 0]])
    row = verify._check_gs(cons, [([1, 2, 3], broken)])
    with pytest.raises(ValueError):
        is_abelian(cons.algebra, broken)
    assert row["witness"][1] == [1, 2, 3]
    return row, "stabiliser not closed under bracket"


def independence_generic(monkeypatch, capsys):
    cons = _adjoint()
    cons = replace(cons, family=[cons.family[0]] * 2)
    sample = stabiliser_sample(cons.module, CTX, "gs", "ex-adjoint")
    row = verify._check_independence(cons, sample)
    assert independence_rank_at(cons.family, row["witness"]) == 1
    return row, "rank 1 < 2 at every sampled point"


def independence_witness_exact(monkeypatch, capsys):
    cons = replace(_adjoint(), witness=[0] * 8)
    row = verify._check_witness_exact(cons)
    assert independence_rank_at(cons.family, row["witness"]) == 0
    return row, "rank 0 != 2 at the designated witness"


def kernel_span_does_not_span(monkeypatch, capsys):
    cons = _adjoint()
    cons = replace(cons, family=cons.family[:1])
    sample = stabiliser_sample(cons.module, CTX, "gs", "ex-adjoint")
    row = verify._check_kernel_span(cons, sample)
    # (stabiliser dim, rank of the values) at each sampled point
    assert [2, 1] in row["witness"]
    return row, "values do not span the stabiliser"


def degree_audit(monkeypatch, capsys):
    row = verify._check_degree_audit(_expect(_adjoint(), audit_verdict="surplus"))
    return row, "computed equality, expected surplus"


def bq_bookkeeping(monkeypatch, capsys):
    row = verify._check_bookkeeping(_expect(_adjoint(), quotient_degree=6))
    return row, "q + sum(deg+1) = 11 != dim V + l = 10"


def index_not_stabilised(monkeypatch, capsys):
    inner = verify.index_estimate
    monkeypatch.setattr(verify, "index_estimate",
                        lambda lie, ctx: replace(inner(lie, ctx), stabilised=False))
    report = _run_adjoint(monkeypatch, _adjoint(2))
    assert _row(report, "rais_consistency")["verdict"] == "fail"
    return _row(report, "index_stabilized"), "index estimate did not stabilise (max rank 4)"


def rais_inconsistent(monkeypatch, capsys):
    inner = verify.index_estimate
    monkeypatch.setattr(verify, "index_estimate",
                        lambda lie, ctx: replace(inner(lie, ctx), index=4, max_rank=2))
    row = _row(_run_adjoint(monkeypatch, _adjoint(2)), "rais_consistency")
    w = row["witness"]
    assert w["index_q"] != w["dim_v"] - w["dim_g"] + w["stab_dim"] + w["stab_index"]
    return row, '"index_q": 4'


def complement_equivariant(monkeypatch, capsys):
    cons = replace(_adjoint(2), complement=[0], complement_label="E_12")
    row = _row(_run_adjoint(monkeypatch, cons), "equivariance_complement_fails")
    assert equivariance_check(cons.family[0], [0], CTX).is_zero
    return row, "is unexpectedly equivariant on E_12 directions"


def control_holds(monkeypatch, capsys):
    cons = _adjoint(2)
    F = cons.family[0]
    cons = replace(cons, controls=[Control("kernel_phi_control_kernel", F, "a kernel covariant")])
    row = _row(_run_adjoint(monkeypatch, cons, negative_controls=True), "kernel_phi_control_kernel")
    assert kernel_phi_check(F, CTX).is_zero
    return row, "identity unexpectedly holds (exact)"


def table_comparison_mismatch(monkeypatch, capsys):
    # table2/1 printed with l = 2 for ex6.3/i, whose generic stabiliser has dim 1
    row, link = rows_for_entry("ex6.3/i")[0]
    monkeypatch.setattr(verify, "rows_for_entry",
                        lambda entry_id: [(row, replace(link, values=lambda p: {"l": 2}))])
    assert cli.main(["run", "--entry", "ex6.3/i", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    text = to_text(Report(payload["config"], payload["entries"]))
    assert "    row table2/1     mismatch (printed values differ: l)\n" in text
    entry = payload["entries"][0]
    assert [c["name"] for c in entry["checks"] if c["verdict"] == "fail"] == ["table_row_comparison"]
    return _row(entry, "table_row_comparison"), "printed table values differ from computed ones"


def _table_row(monkeypatch, row_id: str = "table1/1a", **changes) -> dict:
    """run_table_row with the printed values of the row's module changed;
    under any other id than its own the row has no frozen manifest line."""
    row = get_row("table1/1a")
    spec = row.module_spec
    fake = replace(spec, expected=lambda p: {**spec.expected(p), **changes})
    monkeypatch.setattr(verify, "get_row", lambda _: replace(row, id=row_id, module_spec=fake))
    return run_table_row(row_id, RunConfig())


def table_audit(monkeypatch, capsys):
    report = _table_row(monkeypatch, dim_v=16)
    assert [c["name"] for c in report["checks"]] == ["construction_audit"]  # nothing after it
    return report["checks"][0], "module dimension 15 != printed 16"


def table_gs(monkeypatch, capsys):
    report = _table_row(monkeypatch, "table1/x", gs=2)
    return _row(report, "gs_dimension_toral"), "sampled stabiliser dim 1 != printed 2"


def table_quotient(monkeypatch, capsys):
    report = _table_row(monkeypatch, "table1/x", quotient_dim=4)
    assert _row(report, "gs_dimension_toral")["verdict"] == "sampled-pass"
    return _row(report, "quotient_dim_estimate"), "sampled estimate 3 != printed 4"


CASES = [
    audit_module_dimension, audit_quotient_dimension, gs_non_abelian, gs_not_closed,
    independence_generic, independence_witness_exact, kernel_span_does_not_span, degree_audit,
    bq_bookkeeping, index_not_stabilised, rais_inconsistent, complement_equivariant,
    control_holds, table_comparison_mismatch, table_audit, table_gs, table_quotient,
]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_every_fail_branch_reports_fail_with_its_detail(case, monkeypatch, capsys):
    row, detail = case(monkeypatch, capsys)
    assert row["verdict"] == "fail", row
    assert detail in json.dumps(row), row
