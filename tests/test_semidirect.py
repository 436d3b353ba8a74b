"""Semidirect product structure, moment map, index estimates."""

from __future__ import annotations

from fractions import Fraction

from semicov.lie import LieAlgebra, adjoint_rep, defining, sl, stabiliser, stabiliser_sample
from semicov.semidirect import (
    DualPoint,
    SemidirectProduct,
    b_of,
    coadjoint_unipotent,
    index_estimate,
    kirillov_form,
    kirillov_rank,
    moment_map,
    rais_consistency,
)
from semicov.poly import CheckContext


def q_adjoint_sl2():
    return SemidirectProduct(adjoint_rep(sl(2)))


def q_defining_sl2():
    return SemidirectProduct(defining(sl(2)))


def test_bracket_structure_and_jacobi():
    q = q_adjoint_sl2()
    assert q.dim == 6
    ok, witness = q.lie.check_jacobi()
    assert ok, witness
    # V* is an abelian ideal: no bracket among the dual coordinates
    for (a, b) in q.lie.brackets:
        assert not (a >= q.dim_g and b >= q.dim_g)


def test_jacobi_fails_for_broken_action():
    # sanity: the Jacobi check does detect corruption
    q = q_adjoint_sl2()
    broken = LieAlgebra("broken", q.dim, {**q.lie.brackets, (3, 4): {0: 1}})
    ok, _ = broken.check_jacobi()
    assert not ok


def test_moment_map_frozen():
    q = q_defining_sl2()
    # basis order of sl2: E01, E10, H
    mu = moment_map(q, [1, 0], [0, 1])
    assert mu == [0, 1, 0]
    mu2 = moment_map(q, [0, 1], [1, 0])
    assert mu2 == [1, 0, 0]
    mu3 = moment_map(q, [1, 0], [Fraction(1, 2), 0])
    assert mu3 == [0, 0, Fraction(1, 2)]


def test_coadjoint_unipotent_fixes_v():
    q = q_defining_sl2()
    eta = DualPoint([1, 2, 3], [4, 5])
    out = coadjoint_unipotent(q, [1, -1], eta)
    assert out.v == [4, 5]
    mu = moment_map(q, [4, 5], [1, -1])
    assert out.xi == [x + m for x, m in zip([1, 2, 3], mu)]


def test_kirillov_rank_even():
    q = q_adjoint_sl2()
    draw = CheckContext(seed=3).draw(3, "test")
    for _ in range(10):
        eta = DualPoint(draw(), draw())
        r = kirillov_rank(q, eta)
        assert r % 2 == 0
        form = kirillov_form(q.lie, eta.combined())
        assert (form + form.transpose()).is_zero()


def test_index_adjoint_sl2():
    q = q_adjoint_sl2()
    est = index_estimate(q.lie, CheckContext(seed=0))
    assert est.index == 2
    assert est.stabilised
    assert b_of(q.lie, CheckContext(seed=0)) == Fraction(4)


def test_index_defining_sl2():
    q = q_defining_sl2()
    est = index_estimate(q.lie, CheckContext(seed=0))
    assert est.index == 1
    assert b_of(q.lie, CheckContext(seed=0)) == Fraction(3)


def test_rais_consistency():
    for q, stab_dim in ((q_adjoint_sl2(), 1), (q_defining_sl2(), 1)):
        ctx = CheckContext(seed=0)
        sample = stabiliser_sample(q.rep, ctx, "gs")
        rep = rais_consistency(q, sample, index_estimate(q.lie, ctx), ctx)
        assert rep.consistent
        assert rep.stabilised
        assert rep.stab_dim == stab_dim
        assert rep.stab_abelian


def test_rais_consistency_takes_the_index_estimate(monkeypatch):
    import semicov.lie as lie
    import semicov.semidirect as semidirect

    q = q_adjoint_sl2()
    ctx = CheckContext(samples=4, bound=5)
    est = index_estimate(q.lie, ctx)
    # the zero point first: x is the first point of minimal stabiliser dimension
    points = [[0, 0, 0], [1, 0, 0], [2, 3, -1], [0, 0, 1]]
    sample = [(v, stabiliser(q.rep, v)) for v in points]
    inner = semidirect.index_estimate
    calls = []

    def recording(lie_alg, ctx):
        calls.append((lie_alg.dim, ctx.samples, ctx.bound))
        return inner(lie_alg, ctx)

    def no_stabiliser(rep, v):
        raise AssertionError("rais_consistency must read the sample, not redraw it")

    monkeypatch.setattr(semidirect, "index_estimate", recording)
    monkeypatch.setattr(lie, "stabiliser", no_stabiliser)
    rep = rais_consistency(q, sample, est, ctx)
    # g_x is abelian, so ind g_x = dim g_x with no estimate at all
    assert calls == []
    assert rep.stab_dim == rep.stab_index == 1 and rep.stab_abelian
    assert rep.index_q == est.index == 2 and rep.consistent
    assert rep.stabilised == est.stabilised
    # at the zero point alone g_x = sl2, whose index (its rank, 1) is sampled
    # inside the stabiliser over ctx.samples points under ctx.bound
    rep = rais_consistency(q, sample[:1], est, ctx)
    assert calls == [(3, 4, 5)]
    assert rep.stab_dim == 3 and rep.stab_index == 1 and not rep.stab_abelian
    assert not rep.consistent  # the zero point is not generic


def test_index_of_simple_algebra_is_rank():
    est = index_estimate(sl(3), CheckContext(seed=1))
    assert est.index == 2
    assert est.stabilised
