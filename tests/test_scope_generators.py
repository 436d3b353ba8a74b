"""Equivariance proved on Lie generators of the scope.

``LieAlgebra.generating_subset`` is checked against an independent closure:
brackets of every pair of spanning vectors, ``bracket_coords``, with the
span taken by ``sympy`` until its rank stops growing.  ``run_entry`` may use
the generators only when the jacobi row passed, and certifies them once per
entry for the whole family; the tests below count the certificates, break
that premise, and feed it a covariant that is not equivariant, and see the
row keep the verdict and witness of a scan over the whole scope.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest
import sympy

from semicov import verify
from semicov.catalog import build_construction, get_entry
from semicov.covariants import Covariant, equivariance_check
from semicov.lie import LieAlgebra, Representation, product, sl, so, sp
from semicov.linalg import Matrix
from semicov.poly import MultiPoly
from semicov.verify import RunConfig, jsonable, run_entry


def _unit(dim: int, a: int) -> list:
    return [int(b == a) for b in range(dim)]


def _closure(g: LieAlgebra, indices) -> list:
    """A basis of the subalgebra generated by the e_a, a in indices."""
    vecs = [_unit(g.dim, a) for a in indices]
    while True:
        brackets = [g.bracket_coords(x, y) for i, x in enumerate(vecs) for y in vecs[i + 1 :]]
        space = sympy.Matrix(vecs + brackets).rowspace()
        if len(space) == len(vecs):
            return vecs
        vecs = [[Fraction(int(x.p), int(x.q)) for x in row] for row in space]


def _spans(g: LieAlgebra, gens, indices) -> bool:
    """The closure of gens is span(e_a : a in indices)."""
    closure = _closure(g, gens)
    inside = all(x == 0 for v in closure for b, x in enumerate(v) if b not in indices)
    return inside and len(closure) == len(indices)


def _scope_cases():
    ex51 = build_construction(get_entry("ex5.1"), {})
    g = ex51.module.algebra
    cases = [(alg, tuple(range(alg.dim))) for alg in (sl(2), sl(3), sl(4), sl(5), so(4))]
    cases.append((product(sp(4), so(6)), tuple(range(25))))
    cases += [(g, tuple(ex51.scope)), (g, tuple(ex51.complement))]
    s4 = sl(4)
    cases.append((s4, (12, 13, 14)))  # the Cartan subalgebra: abelian
    cases.append((s4, (5,)))
    return cases


@pytest.mark.parametrize("g,indices", _scope_cases(), ids=lambda x: repr(x)[:40])
def test_generating_subset_matches_bracket_closure(g, indices):
    gens = g.generating_subset(indices)
    assert gens is not None
    assert set(gens) <= set(indices)
    assert list(gens) == sorted(gens, key=list(indices).index)
    assert _spans(g, gens, indices)


def test_generating_subset_is_greedy_in_seeds_then_index_order():
    # walking the seeds, then the other indices in order, e_a is a generator
    # exactly when it lies outside the closure of the generators before it
    for g in (sl(4), product(sl(3), so(4))):
        gens = g.generating_subset(range(g.dim))
        order = list(g.seeds) + [a for a in range(g.dim) if a not in g.seeds]
        for k, a in enumerate(order):
            before = [s for s in order[:k] if s in gens]
            span = sympy.Matrix(_closure(g, before) or [[0] * g.dim])
            outside = sympy.Matrix.vstack(span, sympy.Matrix([_unit(g.dim, a)])).rank() > span.rank()
            assert (a in gens) == outside, (g, a)


def test_abelian_and_single_index_need_every_index():
    g = sl(4)
    assert g.generating_subset((12, 13, 14)) == (12, 13, 14)
    assert g.generating_subset((5,)) == (5,)


def test_empty_and_repeated_scopes():
    g = sl(2)
    # the empty set generates the zero subalgebra
    assert g.generating_subset([]) == ()
    # each generator once, in scope order, however often the scope names it
    assert g.generating_subset([0, 0, 1, 2]) == g.generating_subset([0, 1, 2]) == (0, 1)
    assert g.generating_subset([2, 1, 2, 0, 1]) == (1, 0)
    assert g.generating_subset([2, 2]) == (2,)


def test_generating_subset_counts_at_default_sizes():
    assert [len(sl(n).generating_subset(range(n * n - 1))) for n in (2, 3, 4, 5)] == [2, 3, 4, 5]
    assert len(sl(6).generating_subset(range(35))) == 6
    ex51 = build_construction(get_entry("ex5.1"), {})
    assert len(ex51.module.algebra.generating_subset(ex51.scope)) == 6


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sl_seeds_are_the_affine_chevalley_generators(n):
    # E_(i,i+1) for the simple roots and E_(n,1) for the lowest root
    g = sl(n)
    want = [Matrix.unit(n, n, i, i + 1) for i in range(n - 1)] + [Matrix.unit(n, n, n - 1, 0)]
    assert [g.basis[s] for s in g.seeds] == want
    assert _spans(g, g.seeds, range(g.dim))
    assert g.generating_subset(range(g.dim)) == g.seeds


def test_product_keeps_each_factor_seeds_at_its_offset():
    assert product(sl(3), sl(3), sl(2)).seeds == (0, 3, 4, 8, 11, 12, 16, 17)
    assert product(sp(4), so(6)).seeds == ()


@pytest.mark.parametrize("indices", [(12, 13, 14), (5,)])
def test_seeds_outside_the_scope_fall_back_to_index_order(indices):
    g = sl(4)
    assert not set(g.seeds) & set(indices)
    unseeded = LieAlgebra(g.name, g.dim, g.brackets)
    assert g.generating_subset(indices) == unseeded.generating_subset(indices) == indices


def test_non_closed_set_has_no_certificate():
    g = sl(3)
    # E_12 and E_21 without their bracket H_12
    e12, e21 = 0, 2
    assert g.basis[e12] == Matrix.unit(3, 3, 0, 1) and g.basis[e21] == Matrix.unit(3, 3, 1, 0)
    assert g.generating_subset((e12, e21)) is None
    assert not _spans(g, (e12, e21), (e12, e21))
    assert g.generating_subset((e12, e21, 6)) == (e12, e21)
    # E_13 makes three, as many as the closure of the first two: it is the
    # bracket leaving the span that rules the set out
    assert g.generating_subset((e12, e21, 1)) is None


# -- the row in run_entry -------------------------------------------------------


def _row(report: dict, name: str) -> dict:
    return next(c for c in report["checks"] if c["name"] == name)


def _run(monkeypatch, cons, **knobs) -> dict:
    monkeypatch.setattr(verify, "build_construction", lambda entry, overrides: cons)
    return run_entry(cons.entry_id, RunConfig(entries=(cons.entry_id,), **knobs))


def _full_scan_witness(cons, ctx):
    for F in cons.family:
        res = equivariance_check(F, cons.scope, ctx)
        if res.verdict == "proved_nonzero":
            return jsonable(res.witness)
    return None


@pytest.mark.parametrize("entry,overrides,family", [("ex6.1", (), 2), ("ex6.3/iii", (("m", 2),), 3)])
def test_scope_is_certified_once_per_entry(record, entry, overrides, family):
    certified = record("lie.LieAlgebra.generating_subset")["lie.LieAlgebra.generating_subset"]
    report = run_entry(entry, RunConfig(entries=(entry,), overrides=overrides))
    assert _row(report, "jacobi")["verdict"] == "pass"
    row = _row(report, "equivariance_scope")
    assert row["verdict"] == "pass" and row["detail"].startswith("%d covariants" % family)
    assert len(certified) == 1


@pytest.mark.parametrize("mode", ["auto", "sampled"])
def test_broken_jacobi_falls_back_to_the_full_scan(monkeypatch, record, mode):
    cons = build_construction(get_entry("ex-adjoint"), {})
    g, rep = cons.module.algebra, cons.module
    gens = g.generating_subset(range(g.dim))
    b = next(a for a in range(g.dim) if a not in gens)
    rho_b = rep.action[b]
    rho_b.rows[0][0] += 1
    rows = list(rep.nonzero_rows)
    rows[b] = [(i, [(j, x) for j, x in enumerate(r) if x]) for i, r in enumerate(rho_b.rows) if any(r)]
    broken = Representation(g, rows, rep.dim_v, label=rep.label)
    for F in cons.family:
        F.rep = broken
    cons = replace(cons, module=broken)
    ctx = RunConfig(mode=mode).ctx
    # the generators alone see nothing wrong: only the premise stops a PASS
    assert all(equivariance_check(F, gens, ctx).is_zero for F in cons.family)
    certified = record("lie.LieAlgebra.generating_subset")["lie.LieAlgebra.generating_subset"]
    report = _run(monkeypatch, cons, mode=mode)
    assert _row(report, "jacobi")["verdict"] == "fail"
    assert certified == []  # no certificate without its premise
    row = _row(report, "equivariance_scope")
    assert row["verdict"] == "fail"
    want = _full_scan_witness(cons, ctx)
    assert want is not None and row["witness"] == want
    assert want[0] == b


@pytest.mark.parametrize("mode", ["auto", "sampled"])
def test_failing_covariant_keeps_the_full_scan_witness(monkeypatch, mode):
    # G(v) = v_4 e_0 on sl_3: at bound 1 the first sampled failure of the
    # full scan is at a direction outside the generators
    cons = build_construction(get_entry("ex-adjoint"), {})
    g = cons.module.algebra
    xs = MultiPoly.variables(g.dim)
    comps = [xs[4] if a == 0 else MultiPoly.zero(g.dim) for a in range(g.dim)]
    cons = replace(cons, family=[Covariant(cons.module, components=comps, name="G")])
    ctx = RunConfig(mode=mode, bound=1).ctx
    report = _run(monkeypatch, cons, mode=mode, bound=1)
    assert _row(report, "jacobi")["verdict"] == "pass"
    row = _row(report, "equivariance_scope")
    assert row["verdict"] == "fail"
    want = _full_scan_witness(cons, ctx)
    assert row["witness"] == want
    gens_only = equivariance_check(cons.family[0], g.generating_subset(range(g.dim)), ctx)
    if mode == "sampled":
        assert want[0] not in g.generating_subset(range(g.dim))
        assert jsonable(gens_only.witness) != want
    else:
        # the directions that fix G form a subalgebra, and the generators
        # span the scope, so an exact check on them alone sees a failure
        assert gens_only.verdict == "proved_nonzero"


def test_equivariance_row_work_count_on_ex61_n4(record):
    """Exact ex6.1 at n=4: 4 generators of sl_4 x 15 components x 2
    covariants, against 15 directions each for the full scan (450 calls)."""
    record("verify._identity_row", "poly.derivative_along")
    cfg = RunConfig(entries=("ex6.1",), overrides=(("n", 4),), mode="exact")
    report = run_entry("ex6.1", cfg)
    res = _row(report, "equivariance_scope")
    assert res["verdict"] == "pass" and res["detail"] == "2 covariants; exact; scope: full"
    calls, row = {}, None  # the derivatives taken in each identity row, by the row begun last
    for path, call in record.log:
        if path == "verify._identity_row":
            row = call.args[0]
        else:
            calls[row] = calls.get(row, 0) + 1
    assert 0 < calls["equivariance_scope"] <= 120, calls
