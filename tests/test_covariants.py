"""Covariant checks against hand-computed oracles.

Oracles used here:

* the quadratic map F(v) = v (v^t J) on the defining sl2 module, which lands
  in sl2, stabilises every point (phi(F) = 0) and is fully equivariant;
* the non-example G(v) = v0^2 E01, which fails the kernel condition and is
  not equivariant, but generates a 5-dimensional irreducible family under
  the infinitesimal action (weights 4, 2, 0, -2, -4);
* the conjugation-equivariant pair X and X^2 - (tr X^2 / 3) I on the adjoint
  sl3 module, whose lifts Poisson-commute and whose values span the
  centraliser of a regular element;
* for the infinitesimal action: ``act_on_matrix_polys``, the same action on
  F's matrix, against the coordinates that both equivariance modes read;
* for the lift rows: the symbolic lifts of ``lift_oracles`` on q*, their
  unipotent substitution and their Lie-Poisson bracket, against the closed
  forms on V that both modes use; the gradient form built from
  ``lift_gradient_at``; and ``sympy.diff`` of the components (dual-number
  derivatives), on catalog modules with random non-kernel component
  covariants;
* for the two kernels that rewrite packed exponent keys term by term,
  ``poly.derivative_along`` and ``_phi_expansion``: their exponent-tuple
  forms in ``poly_oracles``, term for term; and ``derivative_along`` against
  ``sympy``'s sum_j dp/dv_j field_j, on random polynomials and constant,
  linear and degree <= 3 fields, with its degree check at the field width;
* for the derivatives a kernel family makes dead: ``poisson_coords``, the
  exact bracket, on negative controls, where phi is not zero.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import semicov.covariants as covariants
import semicov.poly as poly
from semicov.covariants import (
    Covariant,
    _algebra_matrix,
    act_on_components,
    act_on_matrix_polys,
    action_matrix_on_span,
    covariant_match_check,
    covariant_zero_check,
    degree_audit,
    directional_derivative,
    equivariance_check,
    express_in_span,
    family_rank,
    independence_rank_at,
    invariant_check,
    kernel_phi_check,
    kernel_span_check,
    lift_gradient_at,
    lift_invariance_check,
    parameter_coefficients,
    phi_at,
    phi_polys,
    poisson_commute_check,
    poisson_coords,
    poisson_pair_at,
    resolve_mode,
    weight_under,
)
from semicov.catalog import all_entries, build_construction, get_entry
from semicov.lie import (
    adjoint_rep, defining, direct_sum, product, sl, so, stabiliser, stabiliser_sample,
)
from semicov.linalg import Matrix
from semicov.poly import (
    FIELD_MASK, CheckContext, CutoffExceeded, MultiPoly, derivative_along, field_moves, partials_table,
)
from semicov.semidirect import SemidirectProduct

import poly_oracles
from lift_oracles import (
    lift_change_polynomial,
    lift_polynomial,
    lift_value,
    phi_by_products,
    poisson_bracket_at,
    poisson_bracket_polys,
    shift,
)

# basis order of sl(2): E01 (index 0), E10 (index 1), H (index 2)
E_IDX, F_IDX, H_IDX = 0, 1, 2


def moment_covariant():
    rep = defining(sl(2))

    def formula(c):
        x, y = c
        return Matrix([[x * y, -(x * x)], [y * y, -(x * y)]])

    return Covariant(rep, matrix_formula=formula, name="vvtJ", degree=2)


def bad_covariant():
    rep = defining(sl(2))

    def formula(c):
        x, _ = c
        return Matrix([[0, x * x], [0, 0]])

    return Covariant(rep, matrix_formula=formula, name="x2e", degree=2)


def highest_weight_family():
    """G0 = v1^2 E01 and its images under repeated action of f."""
    rep = defining(sl(2))
    comps = [MultiPoly(2, {(0, 2): 1}), MultiPoly.zero(2), MultiPoly.zero(2)]
    fam = [Covariant(rep, components=comps, name="G0")]
    f = [0, 1, 0]
    for k in range(4):
        nxt = act_on_components(fam[-1], f)
        fam.append(Covariant(rep, components=nxt, name="G%d" % (k + 1)))
    return fam


def sl3_pair():
    g = sl(3)
    rep = adjoint_rep(g)
    basis = g.basis

    def embed(c):
        out = Matrix.zeros(3, 3)
        for ci, b in zip(c, basis):
            if ci != 0:
                out = out + b * ci
        return out

    def f2(c):
        x = embed(c)
        x2 = x * x
        return x2 - Matrix.identity(3) * (x2.trace() * Fraction(1, 3))

    F1 = Covariant(rep, matrix_formula=embed, name="X", degree=1)
    F2 = Covariant(rep, matrix_formula=f2, name="X2-traceless", degree=2)
    return rep, F1, F2


def test_components_frozen():
    F = moment_covariant()
    x2 = MultiPoly(2, {(2, 0): 1})
    y2 = MultiPoly(2, {(0, 2): 1})
    xy = MultiPoly(2, {(1, 1): 1})
    assert F.components == [-x2, y2, xy]
    # round trip through the component representation
    G = Covariant(F.rep, components=F.components, name="copy")
    assert G.degree == 2
    assert G.matrix_at([1, 2]) == F.matrix_at([1, 2])


def test_coords_and_matrix_agree():
    F = moment_covariant()
    v = [3, -2]
    assert F.matrix_at(v) == Matrix([[-6, -9], [4, 6]])
    assert F.coords_at(v) == [-9, 4, -6]


def test_directional_derivative_frozen():
    F = moment_covariant()
    d = directional_derivative(F, [1, 2], [3, 4])
    assert d == Matrix([[10, -6], [16, -10]])


def test_phi_vanishes_for_moment_covariant():
    F = moment_covariant()
    assert phi_at(F, [5, 7]) == [0, 0]
    check = kernel_phi_check(F, CheckContext("exact"))
    assert check.verdict == "proved_zero"
    check = kernel_phi_check(F, CheckContext("sampled", seed=11))
    assert check.verdict == "sampled_zero"


def test_phi_detects_non_kernel():
    G = bad_covariant()
    check = kernel_phi_check(G, CheckContext("exact"))
    assert check.verdict == "proved_nonzero"
    check = kernel_phi_check(G, CheckContext("sampled", seed=11))
    assert check.verdict == "proved_nonzero"
    v, out = check.witness
    assert phi_at(G, v) == out


def _zero_first_draws(monkeypatch, count):
    """Make the first `count` sampled points of covariant checks the origin;
    returns the list of every point drawn."""
    import semicov.poly as poly

    real = poly.rand_vector
    drawn = []

    def draw(rng, n, bound):
        drawn.append([0] * n if len(drawn) < count else real(rng, n, bound))
        return drawn[-1]

    monkeypatch.setattr(poly, "rand_vector", draw)
    return drawn


@pytest.mark.parametrize("check", [kernel_phi_check, equivariance_check])
def test_sampled_failure_reports_points_evaluated(monkeypatch, check):
    # G is homogeneous of degree 2, so both identities hold at the origin
    drawn = _zero_first_draws(monkeypatch, 2)
    res = check(bad_covariant(), ctx=CheckContext("sampled", seed=11, samples=20))
    assert res.verdict == "proved_nonzero"
    assert 3 <= res.trials == len(drawn) < 20


@pytest.mark.parametrize("check", [kernel_phi_check, equivariance_check])
def test_zero_trials_raise(check):
    # a sample count below 1 is refused when the check's context is built
    for bad in (0, -1):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            check(moment_covariant(), ctx=CheckContext("sampled", samples=bad))


def test_equivariance_exact_and_sampled():
    F = moment_covariant()
    assert equivariance_check(F, ctx=CheckContext("exact")).verdict == "proved_zero"
    assert equivariance_check(F, ctx=CheckContext("sampled", seed=5)).verdict == "sampled_zero"
    G = bad_covariant()
    bad = equivariance_check(G, ctx=CheckContext("exact"))
    assert bad.verdict == "proved_nonzero"
    bad = equivariance_check(G, ctx=CheckContext("sampled", seed=5))
    assert bad.verdict == "proved_nonzero"
    # scope restriction: G is e-equivariant (e*G = -2 v0 v1 E01 != 0 actually
    # fails too), but restricting to an index where it does vanish passes;
    # h*G = 0 as computed by hand.
    assert equivariance_check(G, [H_IDX], CheckContext("exact")).verdict == "proved_zero"


def test_weight_ladder():
    fam = highest_weight_family()
    h = [0, 0, 1]
    e = [1, 0, 0]
    weights = [4, 2, 0, -2, -4]
    assert [weight_under(F, h) for F in fam] == weights
    # top of the ladder is annihilated by e, bottom by f
    assert all(p.is_zero() for p in act_on_components(fam[0], e))
    fifth = act_on_components(fam[4], [0, 1, 0])
    assert all(p.is_zero() for p in fifth)
    # e moves F1 off its own line, so it has no weight under e
    assert weight_under(fam[1], e) is None


def test_action_matrix_on_span_sl2_ladder():
    fam = highest_weight_family()
    h_mat = action_matrix_on_span(fam, [0, 0, 1])
    assert h_mat == Matrix.diagonal([4, 2, 0, -2, -4])
    e_mat = action_matrix_on_span(fam, [1, 0, 0])
    expected = Matrix.zeros(5, 5)
    for k in range(1, 5):
        expected.rows[k - 1][k] = k * (5 - k)
    assert e_mat == expected
    f_mat = action_matrix_on_span(fam, [0, 1, 0])
    for k in range(4):
        assert f_mat[k + 1, k] == 1
    assert all(f_mat[i, 4] == 0 for i in range(5))
    # a family that is not stable under the action reports None
    assert action_matrix_on_span(fam[:2], [1, 0, 0]) is not None  # e lowers back inside
    assert action_matrix_on_span(fam[:2], [0, 1, 0]) is None  # f leaves the span


def test_express_in_span():
    fam = highest_weight_family()
    comps_list = [F.components for F in fam]
    target = [a * 2 + b * 3 for a, b in zip(comps_list[0], comps_list[2])]
    coeffs = express_in_span(target, comps_list)
    assert coeffs == [2, 0, 3, 0, 0]
    outside = [MultiPoly(2, {(2, 0): 1}), MultiPoly.zero(2), MultiPoly.zero(2)]
    assert express_in_span(outside, [comps_list[0]]) is None


def test_family_rank():
    fam = highest_weight_family()
    assert family_rank(fam) == 5
    doubled = fam[:1] + [Covariant(fam[0].rep, components=[p * 2 for p in fam[0].components])]
    assert family_rank(doubled) == 1


def test_independence_witness():
    _, F1, F2 = sl3_pair()
    rng = random.Random(2)
    points = [[rng.randint(-10, 10) for _ in range(8)] for _ in range(4)]
    # a regular point of sl3 witnesses independence of X and X^2 - tr/3
    assert max(independence_rank_at([F1, F2], v) for v in points) == 2
    # a dependent family never reaches full rank
    rep = F1.rep
    double = Covariant(rep, components=[p * 2 for p in F1.components], name="2X")
    assert {independence_rank_at([F1, double], v) for v in points} == {1}


def test_sl3_kernel_and_equivariance():
    _, F1, F2 = sl3_pair()
    assert kernel_phi_check(F1, CheckContext("exact")).verdict == "proved_zero"
    assert kernel_phi_check(F2, CheckContext("exact")).verdict == "proved_zero"
    assert equivariance_check(F1, ctx=CheckContext("exact")).verdict == "proved_zero"
    assert equivariance_check(F2, ctx=CheckContext("exact")).verdict == "proved_zero"


def test_kernel_span_sl3():
    _, F1, F2 = sl3_pair()
    sample = [(v, s.dim) for v, s in stabiliser_sample(F1.rep, CheckContext(samples=5), "kernel-span").pairs]
    report = kernel_span_check([F1, F2], sample)
    assert report.contained
    assert report.generic_stab_dim == 2
    assert report.spans_generically
    assert [d for d, _ in report.samples] == [d for _, d in sample]
    # a value outside the stabiliser is reported with the covariant's name
    h = [0] * 8
    h[6] = 1
    const = Covariant(F1.rep, components=[MultiPoly.const(8, c) for c in h], name="H")
    bad = kernel_span_check([F1, const], sample)
    assert not bad.contained and bad.witness == ("H", sample[0][0])


def test_lift_polynomial_and_value():
    F = moment_covariant()
    hat = lift_polynomial(F)
    assert hat.num_vars == 5
    assert hat.is_homogeneous(3)
    xi = [2, -1, 4]
    v = [3, 5]
    assert hat.evaluate(xi + v) == lift_value(F, xi, v)
    # <xi, F(v)> with F(3,5) = -9 e + 25 f + 15 h
    assert lift_value(F, xi, v) == 2 * (-9) + (-1) * 25 + 4 * 15


def test_lift_invariance():
    F = moment_covariant()
    q = SemidirectProduct(F.rep)
    assert lift_invariance_check(q, F, CheckContext("exact")).verdict == "proved_zero"
    assert lift_invariance_check(q, F, CheckContext("sampled", seed=9)).verdict == "sampled_zero"
    G = bad_covariant()
    qg = SemidirectProduct(G.rep)
    bad = lift_invariance_check(qg, G, CheckContext("exact"))
    assert bad.verdict == "proved_nonzero"
    bad = lift_invariance_check(qg, G, CheckContext("sampled", seed=9))
    assert bad.verdict == "proved_nonzero"
    with pytest.raises(ValueError):
        lift_invariance_check(q, G)


def test_poisson_brackets_sl3():
    rep, F1, F2 = sl3_pair()
    q = SemidirectProduct(rep)
    check = poisson_commute_check(q, [F1, F2], CheckContext("exact"))
    assert check.verdict == "proved_zero"
    check = poisson_commute_check(q, [F1, F2], CheckContext("sampled", seed=4, samples=3))
    assert check.verdict == "sampled_zero"


def test_poisson_bracket_oracle():
    # on the dual of sl2 with coordinates (e*, f*, h*):
    # {e, f} = h, {h, e} = 2e, {h, f} = -2f as linear functions
    g = sl(2)
    e, f, h = MultiPoly.variables(3)
    assert poisson_bracket_polys(g, e, f) == h
    assert poisson_bracket_polys(g, h, e) == e * 2
    assert poisson_bracket_polys(g, h, f) == f * (-2)
    # the Casimir ef + fe + h^2/2 (here 2ef + h^2/2... use 4ef + h^2)
    cas = e * f * 4 + h * h
    for lin in (e, f, h):
        assert poisson_bracket_polys(g, cas, lin).is_zero()
    assert poisson_bracket_at(g, cas, e * f + h, [3, -2, 5]) == 0


def test_resolve_mode_and_cutoffs():
    assert resolve_mode("auto", 10, 4) == "exact"
    assert resolve_mode("auto", 50, 4) == "sampled"
    assert resolve_mode("auto", 10, 9) == "sampled"
    assert resolve_mode("auto", 10, None) == "sampled"
    assert resolve_mode("sampled", 3, 2) == "sampled"
    big = Covariant(
        defining(sl(2)),
        matrix_formula=lambda c: Matrix([[0, c[0] ** 9], [0, 0]]),
        name="big",
        degree=9,
    )
    with pytest.raises(CutoffExceeded):
        kernel_phi_check(big, CheckContext("exact"))
    # auto falls back to sampling instead
    assert kernel_phi_check(big, CheckContext("auto", seed=1)).verdict == "proved_nonzero"


def test_zero_and_match_checks():
    rep = defining(sl(2))
    zero = Covariant(rep, components=[MultiPoly.zero(2)] * 3, name="0")
    assert covariant_zero_check(zero, CheckContext("exact")).verdict == "proved_zero"
    F = moment_covariant()
    assert covariant_zero_check(F, CheckContext("exact")).verdict == "proved_nonzero"
    half = Covariant(rep, components=[p * Fraction(1, 2) for p in F.components], name="F/2")
    assert covariant_match_check(F, half, 2, CheckContext("exact")).verdict == "proved_zero"
    assert covariant_match_check(F, half, 1, CheckContext("exact")).verdict == "proved_nonzero"
    smp = covariant_match_check(F, half, 2, CheckContext("sampled", seed=2))
    assert smp.verdict == "sampled_zero"


def test_parameter_coefficients():
    rep = defining(sl(2))

    def formula(c):
        x, y, lam = c
        s = x + lam * y
        return Matrix([[0, s * s], [0, 0]])

    fam = parameter_coefficients(rep, formula, name_fmt="P{k}")
    assert len(fam) == 3
    x2 = MultiPoly(2, {(2, 0): 1})
    xy = MultiPoly(2, {(1, 1): 2})
    y2 = MultiPoly(2, {(0, 2): 1})
    assert fam[0].components[0] == x2
    assert fam[1].components[0] == xy
    assert fam[2].components[0] == y2
    assert fam[0].name == "P0" and fam[2].name == "P2"


def test_weight_under():
    fam = highest_weight_family()
    h = [0, 0, 1]
    assert [weight_under(G, h) for G in fam] == [4, 2, 0, -2, -4]
    # equivariant covariants have weight 0 under everything
    F = moment_covariant()
    for x in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
        assert weight_under(F, x) == 0
    # not an eigenvector: e moves x^2 E01 off its own line
    G = bad_covariant()
    assert weight_under(G, [1, 0, 0]) is None
    assert weight_under(G, h) == 0


def test_independence_rank_at():
    _, F1, F2 = sl3_pair()
    v = [1, 2, 0, -1, 3, 1, 0, 2]
    assert independence_rank_at([F1, F2], v) == 2
    assert independence_rank_at([F1, F1], v) == 1


def test_degree_audit_cases():
    from semicov.verify import _check_bookkeeping

    eq = degree_audit([2, 2], dim_v=8, q_quotient=4)
    assert (eq.total, eq.codim, eq.surplus) == (4, 4, 0)
    assert eq.verdict == "equality"
    # q + sum(deg+1) = dim V + l holds at an equality entry ...
    assert _check_bookkeeping(build_construction(get_entry("ex5.2"))) == {
        "name": "bq_bookkeeping", "verdict": "pass", "detail": "q + sum(deg+1) = 10 = dim V + l"
    }

    surplus = degree_audit([2, 6], dim_v=16, q_quotient=10)
    assert (surplus.total, surplus.codim, surplus.surplus) == (8, 6, 2)
    assert surplus.verdict == "surplus"
    # ... and is not claimed at a surplus one
    assert _check_bookkeeping(build_construction(get_entry("ex6.1"), {"n": 4})) == {
        "name": "bq_bookkeeping", "verdict": "skipped",
        "detail": "identity applies to equality entries; this instantiation has surplus 2",
    }

    deficit = degree_audit([1], dim_v=4, q_quotient=2)
    assert deficit.verdict == "deficit" and deficit.surplus == -1


def test_invariant_check_adjoint_determinant():
    # on the adjoint module of sl(2), minus the matrix determinant
    # a*b + c^2 generates the invariants
    rep = adjoint_rep(sl(2))
    p = MultiPoly(3, {(1, 1, 0): 1, (0, 0, 2): 1})
    assert invariant_check(rep, p).verdict == "proved_zero"
    smp = invariant_check(rep, p, ctx=CheckContext("sampled", seed=3))
    assert smp.verdict == "sampled_zero"

    bad = MultiPoly(3, {(2, 0, 0): 1})
    assert invariant_check(rep, bad).verdict == "proved_nonzero"
    sbad = invariant_check(rep, bad, ctx=CheckContext("sampled", seed=3))
    assert sbad.verdict == "proved_nonzero" and sbad.witness is not None


def test_invariant_check_symplectic_pairing():
    # two copies of the defining sl(2) module carry x1*y2 - x2*y1
    g = sl(2)
    rep = direct_sum(defining(g), defining(g))
    p = MultiPoly(4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
    assert invariant_check(rep, p).verdict == "proved_zero"


# -- the sampled layer against independent oracles -------------------------

ORACLE_ENTRIES = (("ex5.1", {}), ("ex6.3/iii", {"m": 1}), ("ex-adjoint", {}))


def random_covariant(rep, rng, name, max_degree=3):
    """A component covariant with a few random terms per component; almost
    surely outside the kernel and not equivariant."""
    nv = rep.dim_v
    comps = []
    for _ in range(rep.algebra.dim):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            exp = [0] * nv
            for _ in range(rng.randint(1, max_degree)):
                exp[rng.randrange(nv)] += 1
            coeff = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
            terms[tuple(exp)] = terms.get(tuple(exp), 0) + coeff
        comps.append(MultiPoly(nv, terms))
    return Covariant(rep, components=comps, name=name)


def formula_view(F: Covariant) -> Covariant:
    """The same map as F, given by a matrix formula instead of components."""
    return Covariant(F.rep, matrix_formula=F.matrix_at, name=F.name + "-formula", degree=F.degree)


def _unit(dim: int, a: int) -> list:
    return [int(b == a) for b in range(dim)]


ACTION_ORACLE_ENTRIES = ORACLE_ENTRIES + (("ex5.3/gl", {}),)


@pytest.mark.parametrize("entry_id,overrides", ACTION_ORACLE_ENTRIES)
def test_act_on_components_matches_matrix_oracle(entry_id, overrides):
    cons = build_construction(get_entry(entry_id), overrides)
    rep, g = cons.module, cons.module.algebra
    rng = random.Random("action-" + entry_id)
    randoms = [random_covariant(rep, rng, "R%d" % k, max_degree=2) for k in range(2)]
    family = list(cons.family) + randoms + [formula_view(randoms[0])]
    nonzero = 0
    for F in family:
        for a in range(g.dim):
            coords = act_on_components(F, _unit(g.dim, a))
            assert _algebra_matrix(g, coords) == act_on_matrix_polys(F, _unit(g.dim, a)), (F.name, a)
            nonzero += any(not p.is_zero() for p in coords)
    assert nonzero > 0  # the bracket and the D-term were exercised, not only zeros


def test_moment_covariant_action_vanishes_in_both_forms():
    F = moment_covariant()
    for a in range(3):
        assert all(p.is_zero() for p in act_on_components(F, _unit(3, a)))
        assert all(p.is_zero() for row in act_on_matrix_polys(F, _unit(3, a)).rows for p in row)


@pytest.mark.parametrize("entry_id,overrides", ACTION_ORACLE_ENTRIES)
def test_sampled_equivariance_witness_reevaluates(entry_id, overrides):
    cons = build_construction(get_entry(entry_id), overrides)
    rep, g = cons.module, cons.module.algebra
    R = random_covariant(rep, random.Random("witness-" + entry_id), "R")
    for F in (R, formula_view(R)):
        check = equivariance_check(F, ctx=CheckContext("sampled", seed=4, samples=3))
        assert check.verdict == "proved_nonzero" and check.mode == "sampled"
        a, v, out = check.witness
        assert any(c != 0 for c in out)
        want = act_on_matrix_polys(F, _unit(g.dim, a)).map(lambda p: p.evaluate(v))
        assert _algebra_matrix(g, out) == want
        check = equivariance_check(F, ctx=CheckContext("exact"))
        assert check.verdict == "proved_nonzero" and check.mode == "exact"
        a, (point, value) = check.witness
        assert value != 0
        assert value in [p.evaluate(point) for p in act_on_components(F, _unit(g.dim, a))]


def bracket_from_gradients(q, F, G, xi, v):
    """{F_hat, G_hat}(xi, v) from the full gradients of both lifts."""
    eta = list(xi) + list(v)
    gf = lift_gradient_at(F, xi, v)
    gg = lift_gradient_at(G, xi, v)
    acc = 0
    for (u, w), entry in q.lie.brackets.items():
        lin = sum(coeff * eta[c] for c, coeff in entry.items())
        acc += lin * (gf[u] * gg[w] - gf[w] * gg[u])
    return acc


@pytest.mark.parametrize("entry_id,overrides", ORACLE_ENTRIES)
def test_poisson_pair_at_matches_exact_bracket(entry_id, overrides):
    cons = build_construction(get_entry(entry_id), overrides)
    rep = cons.module
    q = SemidirectProduct(rep)
    rng = random.Random(entry_id)
    randoms = [random_covariant(rep, rng, "R%d" % k) for k in range(3)]
    # random pairs, one through a matrix formula, and catalog members against
    # randoms (the lifts of kernel covariants are Casimirs, so those are zero)
    pairs = [(randoms[0], randoms[1]), (randoms[2], formula_view(randoms[0]))]
    pairs += [(F, randoms[k % 3]) for k, F in enumerate(cons.family)]
    nonzero = 0
    for F, G in pairs:
        lifts = (lift_polynomial(F), lift_polynomial(G))
        for _ in range(2):
            xi = [rng.randint(-5, 5) for _ in range(q.dim_g)]
            v = [rng.randint(-5, 5) for _ in range(q.dim_v)]
            got = poisson_pair_at(q, F, G, xi, v)
            assert got == poisson_bracket_at(q.lie, *lifts, xi + v)
            assert got == bracket_from_gradients(q, F, G, xi, v)
            assert got == -poisson_pair_at(q, G, F, xi, v)
            nonzero += got != 0
    assert nonzero > 0  # the oracle saw nonzero brackets, not only zeros


def _to_sympy(p: MultiPoly, syms):
    import sympy

    return sum(
        (sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
         * sympy.Mul(*(s**k for s, k in zip(syms, e))) for e, c in p.terms.items()),
        sympy.Integer(0),
    )


def test_directional_derivative_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    cases = [moment_covariant(), sl3_pair()[2]]
    for entry_id, overrides in ORACLE_ENTRIES + (("ex5.3", {}),):
        cons = build_construction(get_entry(entry_id), overrides)
        R = random_covariant(cons.module, rng, "R")
        cases += [cons.family[-1], R, formula_view(R)]
    for F in cases:
        nv = F.rep.dim_v
        syms = sympy.symbols("x0:%d" % nv)
        v = [rng.randint(-5, 5) for _ in range(nv)]
        w = [rng.randint(-5, 5) for _ in range(nv)]
        at_v = dict(zip(syms, v))
        want = Matrix.zeros(F.rep.algebra.basis[0].nrows, F.rep.algebra.basis[0].ncols)
        for comp, b in zip(F.components, F.rep.algebra.basis):
            expr = _to_sympy(comp, syms)
            d = sum((wj * sympy.diff(expr, s) for s, wj in zip(syms, w)), sympy.Integer(0))
            d = sympy.Rational(d.subs(at_v))
            want = want + b * Fraction(int(d.p), int(d.q))
        assert directional_derivative(F, v, w) == want, F.name


def test_sampled_poisson_witness_reevaluates():
    cons = build_construction(get_entry("ex-adjoint"), {})
    q = SemidirectProduct(cons.module)
    rng = random.Random(3)
    family = [formula_view(random_covariant(cons.module, rng, "R0")),
              random_covariant(cons.module, rng, "R1")]
    check = poisson_commute_check(q, family, CheckContext("sampled", seed=2, samples=5))
    assert check.verdict == "proved_nonzero" and check.mode == "sampled"
    (i, j), (xi, v), value = check.witness
    assert (i, j) == (0, 1) and value != 0
    lifts = [lift_polynomial(F) for F in family]
    assert poisson_bracket_at(q.lie, lifts[i], lifts[j], list(xi) + list(v)) == value


def test_sampled_lift_witness_reevaluates():
    G = bad_covariant()
    q = SemidirectProduct(G.rep)
    check = lift_invariance_check(q, G, CheckContext("sampled", seed=9, samples=5))
    assert check.verdict == "proved_nonzero" and check.mode == "sampled"
    v, value = check.witness
    assert len(v) == q.dim_v and any(x != 0 for x in value)
    assert phi_at(G, v) == value


def test_covariant_leaving_its_algebra_raises():
    rep = defining(sl(2))
    g = rep.algebra
    assert g.coords(Matrix.identity(2)) is None
    assert g.coords(Matrix([[3, 1], [0, -3]])) == [1, 0, 3]
    p = product(sl(2), so(3))  # a product builds its solver on first use
    assert p.coords(p.basis[4]) == [int(a == 4) for a in range(p.dim)]
    assert p.coords(Matrix.identity(5)) is None
    F = Covariant(rep, matrix_formula=lambda c: Matrix([[c[0], 0], [0, c[0]]]), name="scalar")
    with pytest.raises(ValueError, match="left its algebra"):
        F.coords_at([1, 2])
    with pytest.raises(ValueError, match="left the algebra"):
        parameter_coefficients(rep, lambda c: Matrix([[c[-1], 0], [0, c[0]]]))


def test_wrong_length_is_outside_the_span():
    # a 3 x 3 matrix is not in sl_2, whatever its top-left block holds
    g = sl(2)
    big = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 7]])
    assert g.coords(big) is None and g.coords(Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])) is None
    s = stabiliser(adjoint_rep(g), [1, 0, 0])  # span(E_12) in sl_2's coordinates
    assert s.contains([1, 0, 0]) and not s.contains([1, 0, 0, 0]) and not s.contains([1, 0])
    F = Covariant(defining(g), matrix_formula=lambda c: big * c[0], name="big")
    with pytest.raises(ValueError, match="left its algebra"):
        F.coords_at([1, 2])


def _counted(F: Covariant, calls: dict) -> Covariant:
    """F with its formula wrapped to count calls at polynomial arguments."""

    def formula(v):
        if isinstance(v[0], MultiPoly):
            calls[F.name] = calls.get(F.name, 0) + 1
        return F.matrix_at(v)

    return Covariant(F.rep, matrix_formula=formula, name=F.name, degree=F.degree)


@pytest.mark.parametrize("indices", [None, [0], [0, 3, 5]])
def test_exact_equivariance_expands_once(indices):
    # equivariance shares the one expansion with kernel_phi, lift and Poisson
    rep, F1, F2 = sl3_pair()
    q = SemidirectProduct(rep)
    calls: dict = {}
    R = formula_view(random_covariant(rep, random.Random(8), "R"))
    family = [_counted(F, calls) for F in (F1, F2, R)]
    for F in family:
        assert kernel_phi_check(F, CheckContext("exact")).mode == "exact"
        assert equivariance_check(F, indices, CheckContext("exact")).mode == "exact"
        assert lift_invariance_check(q, F, CheckContext("exact")).mode == "exact"
    assert poisson_commute_check(q, family, CheckContext("exact")).mode == "exact"
    assert calls == {F.name: 1 for F in family}


# -- the exact lift rows against the symbolic lifts on q* ------------------

EXACT_ORACLE_ENTRIES = (("ex5.1", {}), ("ex5.2", {}), ("ex6.3/iii", {"m": 1}), ("ex-adjoint", {}))


def _oracle_family(entry_id, overrides):
    """The catalog family, random non-kernel covariants and a formula view."""
    cons = build_construction(get_entry(entry_id), overrides)
    rng = random.Random("exact-" + entry_id)
    randoms = [random_covariant(cons.module, rng, "R%d" % k, max_degree=2) for k in range(2)]
    return SemidirectProduct(cons.module), list(cons.family) + randoms + [formula_view(randoms[0])]


@pytest.mark.parametrize("entry_id,overrides", EXACT_ORACLE_ENTRIES)
def test_exact_poisson_coords_match_symbolic_lifts(entry_id, overrides):
    q, family = _oracle_family(entry_id, overrides)
    dg, n = q.dim_g, q.dim
    xis = MultiPoly.variables(n)[:dg]
    lifts = [lift_polynomial(F) for F in family]
    nonzero = 0
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            coords = poisson_coords(family[i], family[j])
            weighted = MultiPoly.zero(n)
            for xi_a, p in zip(xis, coords):
                weighted = weighted + xi_a * shift(p, dg, n)
            assert weighted == poisson_bracket_polys(q.lie, lifts[i], lifts[j]), (i, j)
            nonzero += not weighted.is_zero()
    assert nonzero > 0  # the D-terms and brackets were exercised, not only zeros


@pytest.mark.parametrize("entry_id,overrides", EXACT_ORACLE_ENTRIES)
def test_exact_lift_invariance_matches_substitution(entry_id, overrides):
    q, family = _oracle_family(entry_id, overrides)
    dg, dv = q.dim_g, q.dim_v
    n = dg + 2 * dv
    zetas = MultiPoly.variables(n)[dg + dv:]
    nonzero = 0
    for F in family:
        change = MultiPoly.zero(n)
        for zeta_j, p in zip(zetas, phi_polys(F)):
            change = change + zeta_j * shift(p, dg, n)
        assert change == lift_change_polynomial(q, F), F.name
        nonzero += not change.is_zero()
    assert nonzero > 0


def test_exact_failure_witnesses_reevaluate():
    cons = build_construction(get_entry("ex-adjoint"), {})
    q = SemidirectProduct(cons.module)
    rng = random.Random(5)
    family = [formula_view(random_covariant(cons.module, rng, "R0")),
              random_covariant(cons.module, rng, "R1")]
    check = poisson_commute_check(q, family, CheckContext("exact"))
    assert check.verdict == "proved_nonzero" and check.mode == "exact"
    ((i, j), a), (v, value) = check.witness
    e_a = [int(b == a) for b in range(q.dim_g)]
    assert value != 0
    assert poisson_pair_at(q, family[i], family[j], e_a, v) == value
    for F in family + [bad_covariant()]:
        qf = SemidirectProduct(F.rep)
        check = lift_invariance_check(qf, F, CheckContext("exact"))
        assert check.verdict == "proved_nonzero" and check.mode == "exact"
        v, value = check.witness
        assert len(v) == F.rep.dim_v and value != 0
        assert value in phi_at(F, v)


def test_phi_expanded_once_per_covariant(record):
    rep, F1, F2 = sl3_pair()
    q = SemidirectProduct(rep)
    R = random_covariant(rep, random.Random(8), "R")
    family = [F1, F2, formula_view(R)]
    expanded = record("covariants._phi_expansion")["covariants._phi_expansion"]
    for F in family:
        assert kernel_phi_check(F, CheckContext("exact")).mode == "exact"
        assert lift_invariance_check(q, F, CheckContext("exact")).mode == "exact"
    assert poisson_commute_check(q, family, CheckContext("exact")).mode == "exact"
    assert len(expanded) == len(family)


# -- phi(F) by exponent shifts, against the product oracle ---------------


def _phi_same_terms(F: Covariant) -> list[MultiPoly]:
    """phi_polys(F), after checking it term for term against the oracle."""
    got, want = phi_polys(F), phi_by_products(F)
    assert len(got) == len(want) == F.rep.dim_v
    for p, w in zip(got, want):
        assert p.num_vars == w.num_vars and p.terms == w.terms
    return got


@pytest.mark.parametrize("entry", [e.id for e in all_entries()])
def test_phi_matches_products_on_every_family(entry):
    cons = build_construction(get_entry(entry))
    for F in cons.family:
        _phi_same_terms(F)
    for control in cons.controls:
        assert any(not p.is_zero() for p in _phi_same_terms(control.covariant)), control.name


@pytest.mark.parametrize("entry", ["ex5.1", "ex6.1", "ex6.3/iii", "ex-adjoint"])
def test_phi_matches_products_on_random_covariants(entry):
    rep = build_construction(get_entry(entry)).module
    rng = random.Random("phi-" + entry)
    for k in range(3):
        R = random_covariant(rep, rng, "R%d" % k)
        phi = _phi_same_terms(R)
        assert any(not p.is_zero() for p in phi)
        # the matrix-formula view expands its components first; same terms
        _phi_same_terms(formula_view(R))


def test_phi_nonzero_on_negative_control():
    phi = _phi_same_terms(bad_covariant())
    assert [p.terms for p in phi] == [{(2, 1): 1}, {}]  # (x^2 y, 0)


def test_phi_forms_no_polynomial_product(record):
    """The expansion shifts exponents: ``MultiPoly.__mul__`` is never called."""
    cons = build_construction(get_entry("ex6.1"), {"n": 4})
    for F in cons.family:
        F.components  # built by the formula, which does multiply
    calls = record("poly.MultiPoly.__mul__")["poly.MultiPoly.__mul__"]
    for F in cons.family:
        assert all(p.is_zero() for p in phi_polys(F))
    assert calls == []


# -- packed-key kernels, against the exponent-tuple oracle -------------------


def _ex61_with_randoms(count: int = 2) -> list[Covariant]:
    cons = build_construction(get_entry("ex6.1"), {"n": 4})
    rng = random.Random("packed-ex6.1")
    randoms = [random_covariant(cons.module, rng, "R%d" % k) for k in range(count)]
    return list(cons.family) + randoms


def _directions(dim: int, rng: random.Random) -> list[list]:
    """Every basis element, then a random combination with Fraction entries."""
    mixed = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(dim)]
    return [_unit(dim, a) for a in range(dim)] + [mixed]


def _same_terms(got: MultiPoly, want) -> None:
    assert got.num_vars == want.num_vars
    assert {e: (type(c), c) for e, c in got.terms.items()} == {
        e: (type(c), c) for e, c in want.terms.items()
    }


@pytest.mark.parametrize("entry", ["ex6.1", "ex5.1", "ex-adjoint"])
def test_act_and_phi_match_tuple_oracle_term_for_term(entry):
    """act_on_components and phi_polys against the bracket minus the tuple
    oracle's derivative, and against its phi expansion, on the family and
    on random Fraction covariants (ex6.1 at n=4)."""
    if entry == "ex6.1":
        family = _ex61_with_randoms()
    else:
        cons = build_construction(get_entry(entry))
        family = list(cons.family) + [random_covariant(cons.module, random.Random(entry), "R")]
    rng = random.Random("packed-" + entry)
    for F in family:
        rep, nv = F.rep, F.rep.dim_v
        for x in _directions(rep.algebra.dim, rng):
            rows = poly_oracles.operator_rows(rep, x)
            bracket = rep.algebra.bracket_coords(list(x), F.components)
            for got, b, comp in zip(act_on_components(F, x), bracket, F.components):
                want = poly_oracles.TuplePoly.of(covariants._as_poly(b, nv))
                _same_terms(got, want - poly_oracles.derivative_along(comp, rows))
        for got, want in zip(phi_polys(F), poly_oracles.phi_expansion(rep, F.components)):
            _same_terms(got, want)


def test_kernels_build_no_exponent_tuples(monkeypatch):
    """``derivative_along``, its field and table, and ``_phi_expansion`` add
    and mask int keys: with every tuple reading of the layout disabled they
    give the same terms as the oracle."""
    family = _ex61_with_randoms()
    rep = family[0].rep
    x = _directions(rep.algebra.dim, random.Random("no-tuples"))[-1]
    rows = poly_oracles.operator_rows(rep, x)
    want_d = [[poly_oracles.derivative_along(p, rows) for p in F.components] for F in family]
    want_phi = [poly_oracles.phi_expansion(rep, F.components) for F in family]

    def refused(*args):
        raise AssertionError("exponent tuple built")

    for name in ("pack", "unpack"):
        monkeypatch.setattr(poly, name, refused)
        monkeypatch.setattr(covariants, name, refused, raising=False)
    monkeypatch.setattr(MultiPoly, "terms", property(refused))
    moves = covariants.field_moves(rep.act(x, MultiPoly.variables(rep.dim_v)))
    got_d = [[covariants.derivative_along(covariants.partials_table(p), moves) for p in F.components]
             for F in family]
    got_phi = [covariants._phi_expansion(rep, F.components) for F in family]
    monkeypatch.undo()
    for got, want in zip(got_d + got_phi, want_d + want_phi):
        for g, w in zip(got, want):
            _same_terms(g, w)
    assert any(not p.is_zero() for polys in got_d + got_phi for p in polys)


_coeffs = st.one_of(
    st.integers(-4, 4).filter(bool),
    st.builds(Fraction, st.integers(-4, 4).filter(bool), st.sampled_from([2, 3])),
)


@st.composite
def _poly_and_field(draw):
    """A polynomial in 1 to 5 variables and a vector field on them: constant
    (scalars), linear, or of degree at most 3, with scalar zeros among the
    entries."""
    n = draw(st.integers(1, 5))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), _coeffs, max_size=6))
    kind = draw(st.sampled_from(["constant", "linear", "cubic"]))
    if kind == "constant":
        return MultiPoly(n, terms), draw(st.lists(st.one_of(st.just(0), _coeffs), min_size=n, max_size=n))
    factors = st.lists(st.integers(0, n - 1), min_size=kind == "linear", max_size=1 if kind == "linear" else 3)
    monomial = factors.map(lambda vs: tuple(vs.count(i) for i in range(n)))
    entry = st.dictionaries(monomial, _coeffs, max_size=4).map(lambda t: MultiPoly(n, t))
    return MultiPoly(n, terms), draw(st.lists(st.one_of(st.just(0), entry), min_size=n, max_size=n))


@settings(max_examples=120, deadline=None)
@given(_poly_and_field())
def test_derivative_along_partials_matches_the_vector_field(data):
    """sum_j d_j(p) field_j from ``partials_table`` and ``field_moves``,
    against ``sympy``'s derivatives times the field entries."""
    sympy = pytest.importorskip("sympy")
    p, field = data
    n = p.num_vars
    syms = sympy.symbols("x0:%d" % n)
    got = derivative_along(partials_table(p), field_moves(field))
    want = sum((sympy.diff(_to_sympy(p, syms), s) * _to_sympy(f + MultiPoly.zero(n), syms)
                for s, f in zip(syms, field)), sympy.Integer(0))
    assert sympy.Poly(_to_sympy(got, syms), *syms, domain="QQ") == sympy.Poly(want, *syms, domain="QQ")
    assert all(type(c) is int or c.denominator > 1 for c in got.packed.values())


def test_derivative_along_checks_the_degree_once_at_the_field_width():
    """deg p - 1 + deg field may reach FIELD_MASK and not pass it: past it,
    ``derivative_along`` raises OverflowError rather than wrap a key."""
    x, y = MultiPoly.variables(2)
    table = partials_table(x ** (FIELD_MASK - 1))
    top = derivative_along(table, field_moves([x * y, 0]))
    assert top.degree() == FIELD_MASK and top == (FIELD_MASK - 1) * x ** (FIELD_MASK - 1) * y
    with pytest.raises(OverflowError):
        derivative_along(table, field_moves([x * y * y, 0]))
    with pytest.raises(OverflowError):
        derivative_along(partials_table(x ** FIELD_MASK), field_moves([y * y, 1]))


# -- derivatives along phi(F)(v) = 0 are not taken -----------------------------


def _no_dual_evaluation(monkeypatch):
    inner = Covariant.coords_at

    def coords_at(self, v):
        if any(isinstance(x, covariants._Dual) for x in v):
            raise AssertionError("covariant evaluated at a dual point")
        return inner(self, v)

    monkeypatch.setattr(Covariant, "coords_at", coords_at)


def test_derivative_along_zero_evaluates_nothing(monkeypatch):
    """DF_v(0) = 0 with no evaluation of F, so the sampled bracket of a
    kernel family (ex6.1 at n=4) evaluates no covariant at a dual point."""
    cons = build_construction(get_entry("ex6.1"), {"n": 4})
    q = SemidirectProduct(cons.module)
    rng = random.Random("w=0")
    _no_dual_evaluation(monkeypatch)
    F, G = cons.family
    v = [rng.randint(-5, 5) for _ in range(q.dim_v)]
    assert covariants._derivative_coords(F, v, [0] * q.dim_v) == [0] * q.dim_g
    with pytest.raises(AssertionError, match="dual point"):
        covariants._derivative_coords(F, v, _unit(q.dim_v, 0))
    for _ in range(3):
        xi = [rng.randint(-5, 5) for _ in range(q.dim_g)]
        v = [rng.randint(-5, 5) for _ in range(q.dim_v)]
        assert poisson_pair_at(q, F, G, xi, v) == 0


@pytest.mark.parametrize("entry", ["ex5.2", "ex6.2"])
def test_poisson_pair_at_matches_coords_off_the_kernel(entry):
    """A negative control has phi != 0, so its bracket keeps the derivative
    terms: at random (xi, v) it is <xi, poisson_coords(v)>, in both orders,
    against the family members on its module and a random covariant."""
    cons = build_construction(get_entry(entry))
    rng = random.Random("off-kernel-" + entry)
    nonzero = 0
    for control in cons.controls:
        C = control.covariant
        assert any(not p.is_zero() for p in phi_polys(C))
        q = SemidirectProduct(C.rep)
        partners = [F for F in cons.family if F.rep is C.rep] + [random_covariant(C.rep, rng, "R")]
        for F, G in [(C, P) for P in partners] + [(P, C) for P in partners]:
            coords = poisson_coords(F, G)
            for _ in range(3):
                xi = [rng.randint(-5, 5) for _ in range(q.dim_g)]
                v = [rng.randint(-5, 5) for _ in range(q.dim_v)]
                want = sum(x * p.evaluate(v) for x, p in zip(xi, coords))
                assert poisson_pair_at(q, F, G, xi, v) == want
                nonzero += want != 0
    assert nonzero > 0


def test_invariants_are_differentiated_along_generators(record):
    """ex5.3 at n=4, k=2: s(gl(4)^2), of dim 31, has 13 Lie generators, so
    the exact invariant_degrees row takes 13 derivatives of each of its 4
    invariants, not 31."""
    cons = build_construction(get_entry("ex5.3"), {"n": 4, "k": 2})
    extra = next(x for x in cons.extras if x.name == "invariant_degrees")
    assert len(cons.algebra.generating_subset(range(cons.algebra.dim))) == 13
    calls = record("poly.derivative_along")["poly.derivative_along"]
    assert extra.run(CheckContext("exact")).is_zero
    assert len(calls) == 4 * 13
