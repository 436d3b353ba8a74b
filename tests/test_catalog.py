"""Catalog constructions against independently derived oracles.

Oracles used here (all hand-derived from scratch, not read off the
construction code):

* 2x2x2 cube: slicing the cube along factor t gives a pencil of 2x2
  matrices (S0, S1); the classical pencil discriminant assembles into
  the factor-t covariant as  -2 det(S0) e + 2 det(S1) f + polar h  with
  polar = det(S0+S1) - det(S0) - det(S1).  The three factor solutions
  share one and the same phi-image, so a combination stabilises every
  point exactly when its coefficients sum to zero.
* adjoint family on sl_n: the degree-1 member is -X itself, and for
  n = 3 the degree-2 member is -(adj X - tr(adj X)/3 I), both because
  gradients of the characteristic coefficients pair with the trace form.
* triple product, n = 3: the lambda^0 coefficient of the pencil formula
  equals the directly assembled pair
  (traceless(B adj A), traceless(adj(A) B)); the distinguished sl2 acts
  on (F0, F1) as the 2-dimensional irreducible: h-weights (-1, +1),
  e*F0 = -F1, f*F1 = -F0, f*F0 = e*F1 = 0.
* cyclic quiver (2,2): the cycle matrix is [[0, M0], [M1, 0]], its square
  is block-diagonal (M0 M1, M1 M0), and the family member is that square
  minus tr/4 I -- frozen at M0 = [[1,2],[3,4]], M1 = [[5,6],[7,8]].
* symmetric/skew dual pairs, n = 4 and 5: the stored witness makes
  F1 = AB the diagonal matrix diag(-1, ..., -k, 1, ..., k) (padded with a
  zero for odd n), so the odd powers are visibly independent and traceless.
* symmetric pairs: the covariance of B adj(A) under congruence is the
  exact 10-variable polynomial identity
  (gBg^t) adj(gAg^t) g = det(g)^2 g (B adj A).
* skew minor matrices: frozen values at small integer points, the
  defining annihilation identities M A_M = 0 / A_M M = 0, and skewness.
* identity extras: a false identity fails in both modes with a witness that
  re-evaluates to its value, and ex6.1's traces at n = 6 (36 variables,
  degree 10) resolve to sampled under auto.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from semicov.catalog import (
    ParameterError,
    UnknownEntryError,
    adjoint_construction,
    all_entries,
    all_rows,
    build_construction,
    cubic_construction,
    embed_blocks,
    find_line,
    get_entry,
    load_manifest,
    minor_skew_by_columns,
    minor_skew_by_rows,
    quiver_construction,
    quiver_witness_plane,
    resolve_id,
    so_copies_construction,
    sp_so_construction,
    sym_skew_construction,
    sym_skewdual_construction,
    traceless_part,
    tri_sl_construction,
)
from semicov.catalog import quiver_cycle_matrix
from semicov.catalog.families import _cubic_factor_solutions, cubic_combination, identity_extra
from semicov.covariants import (
    Covariant,
    SpanSolver,
    act_on_components,
    covariant_match_check,
    equivariance_check,
    express_in_span,
    family_rank,
    kernel_phi_check,
    phi_polys,
    values_matrix_at,
    weight_under,
)
from semicov.linalg import Matrix, adjugate, det, rank
from semicov.poly import CheckContext, MultiPoly


# -- 2x2x2 cube -------------------------------------------------------------


def _cube_slices(fac: int):
    """Slice the cube a[i,j,k] (variable 4i+2j+k) along one factor."""
    vs = MultiPoly.variables(8)
    out = []
    for b in (0, 1):
        rows = []
        for p in (0, 1):
            row = []
            for q in (0, 1):
                idx = [0, 0, 0]
                idx[fac] = b
                rest = [t for t in range(3) if t != fac]
                idx[rest[0]], idx[rest[1]] = p, q
                row.append(vs[4 * idx[0] + 2 * idx[1] + idx[2]])
            rows.append(row)
        out.append(Matrix(rows))
    return out


def test_cube_solutions_match_pencil_discriminants():
    sols = _cubic_factor_solutions()
    for fac in range(3):
        s0, s1 = _cube_slices(fac)
        polar = det(s0 + s1) - det(s0) - det(s1)
        pe, pf, ph = sols[fac]
        assert (pe + 2 * det(s0)).is_zero()
        assert (pf - 2 * det(s1)).is_zero()
        assert (ph - polar).is_zero()


def test_cube_factor_solutions_fully_equivariant():
    rep = cubic_construction().module
    for fac in range(3):
        coeffs = [1 if t == fac else 0 for t in range(3)]
        g = cubic_combination(rep, *coeffs, name="G%d" % fac)
        assert equivariance_check(g, ctx=CheckContext("exact")).verdict == "proved_zero"


def test_cube_phi_agrees_across_factors():
    rep = cubic_construction().module
    gs = [
        cubic_combination(rep, *[1 if t == fac else 0 for t in range(3)], name="G%d" % fac)
        for fac in range(3)
    ]
    base = phi_polys(gs[0])
    assert any(not p.is_zero() for p in base)
    for other in gs[1:]:
        assert all((a - b).is_zero() for a, b in zip(base, phi_polys(other)))
    assert family_rank(gs) == 3


def test_cube_kernel_iff_coefficients_sum_to_zero():
    rep = cubic_construction().module
    zero_sum = [(1, -1, 0), (0, 1, -1), (2, -1, -1), (1, 1, -2)]
    for lam, mu, nu in zero_sum:
        f = cubic_combination(rep, lam, mu, nu, name="t")
        assert kernel_phi_check(f, CheckContext("exact")).verdict == "proved_zero"
    for lam, mu, nu in [(1, 1, 1), (1, 0, 0), (2, -1, 0)]:
        f = cubic_combination(rep, lam, mu, nu, name="t")
        assert kernel_phi_check(f, CheckContext("exact")).verdict == "proved_nonzero"


def test_cube_construction_family_and_control():
    cons = cubic_construction()
    assert [f.degree for f in cons.family] == [2, 2]
    assert cons.expected.dim_v == 8
    assert cons.expected.rank == 2
    assert cons.expected.degrees == (2, 2)
    names = [c.name for c in cons.controls]
    assert "kernel_phi_control_mixed" in names
    control = cons.controls[names.index("kernel_phi_control_mixed")]
    assert kernel_phi_check(control.covariant, CheckContext("exact")).verdict == "proved_nonzero"


# -- adjoint family ----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_adjoint_degree_one_member_is_minus_x(n):
    cons = adjoint_construction(n)
    rep = cons.module
    ident = Covariant(rep, components=list(MultiPoly.variables(rep.dim_v)), name="id", degree=1)
    res = covariant_match_check(cons.family[0], ident, Fraction(-1), CheckContext("exact"))
    assert res.verdict == "proved_zero"


def test_adjoint_degree_two_member_is_minus_traceless_adjugate():
    cons = adjoint_construction(3)
    rep = cons.module
    vs = MultiPoly.variables(rep.dim_v)
    x = Matrix.zeros(3, 3)
    for c, b in zip(vs, rep.algebra.basis):
        x = x + b.map(lambda e, cc=c: cc * e)
    adj = adjugate(x)
    tr = adj.trace()
    adj_tl = adj - Matrix.identity(3).map(lambda e: tr * Fraction(1, 3) * e)
    coords = SpanSolver([b.vec() for b in rep.algebra.basis]).coords(adj_tl.vec())
    target = Covariant(rep, components=list(coords), name="adj0", degree=2)
    res = covariant_match_check(cons.family[1], target, Fraction(-1), CheckContext("exact"))
    assert res.verdict == "proved_zero"


# -- triple product ----------------------------------------------------------


def test_tri_sl_lambda0_matches_direct_assembly():
    cons = tri_sl_construction(3)
    rep = cons.module
    vs = MultiPoly.variables(rep.dim_v)
    a = Matrix([[vs[3 * i + j] for j in range(3)] for i in range(3)])
    b = Matrix([[vs[9 + 3 * i + j] for j in range(3)] for i in range(3)])
    direct = embed_blocks(
        rep.algebra,
        [traceless_part(b * adjugate(a)), traceless_part(adjugate(a) * b), None],
    )
    coords = SpanSolver([x.vec() for x in rep.algebra.basis]).coords(direct.vec())
    target = Covariant(rep, components=list(coords), name="direct", degree=3)
    assert covariant_match_check(cons.family[0], target, ctx=CheckContext("exact")).verdict == "proved_zero"


def test_tri_sl_ladder_action_of_distinguished_sl2():
    cons = tri_sl_construction(3)
    dim = cons.algebra.dim
    e = [0] * dim
    f = [0] * dim
    h = [0] * dim
    e[16], f[17], h[18] = 1, 1, 1
    f0, f1 = cons.family
    assert weight_under(f0, h) == Fraction(-1)
    assert weight_under(f1, h) == Fraction(1)
    assert all(p.is_zero() for p in act_on_components(f0, f))
    assert all(p.is_zero() for p in act_on_components(f1, e))
    assert express_in_span(act_on_components(f0, e), [f1.components]) == [Fraction(-1)]
    assert express_in_span(act_on_components(f1, f), [f0.components]) == [Fraction(-1)]


def test_tri_sl_scope_splits_product_plus_sl2():
    cons = tri_sl_construction(3)
    assert cons.scope == list(range(16))
    assert cons.complement == [16, 17, 18]
    assert cons.algebra.dim == 19


def test_tri_sl_n2_routes_to_cube():
    cons = build_construction(get_entry("ex5.1"), {"n": 2})
    assert cons.entry_id == "ex5.1"
    assert cons.params == {"n": 2}
    assert cons.expected.dim_v == 8
    assert cons.expected.degrees == (2, 2)


# -- cyclic quiver -----------------------------------------------------------


def test_quiver_cycle_matrix_and_power_blocks():
    v = [1, 2, 3, 4, 5, 6, 7, 8]
    m = quiver_cycle_matrix(v, 2, 2)
    assert m.rows == [[0, 0, 1, 2], [0, 0, 3, 4], [5, 6, 0, 0], [7, 8, 0, 0]]
    m0 = Matrix([[1, 2], [3, 4]])
    m1 = Matrix([[5, 6], [7, 8]])
    sq = m * m
    assert (sq.submatrix(range(2), range(2)) - m0 * m1).is_zero()
    assert (sq.submatrix(range(2, 4), range(2, 4)) - m1 * m0).is_zero()


def test_quiver_family_value_frozen():
    cons = quiver_construction(2, 2, "sl")
    v = [1, 2, 3, 4, 5, 6, 7, 8]
    val = cons.family[0].matrix_at(v)
    half = Fraction(69, 2)
    assert val.rows[0][0] == 19 - half and val.rows[0][1] == 22
    assert val.rows[1][0] == 43 and val.rows[1][1] == 50 - half
    assert val.rows[2][2] == 23 - half and val.rows[2][3] == 34
    assert val.rows[3][2] == 31 and val.rows[3][3] == 46 - half
    assert val.trace() == 0


def test_quiver_witness_plane_values():
    assert quiver_witness_plane(2, 2, 1, 0) == [1, 0, 0, 1, 1, 0, 0, 2]
    assert quiver_witness_plane(2, 2, 0, 1) == [0, 1, 0, 0, 1, 0, 0, 1]
    # generic combination: the stacked powers of the cycle matrix have
    # full rank, i.e. the plane meets the non-derogatory locus
    w = quiver_witness_plane(3, 2, 2, 3)
    p = quiver_cycle_matrix(w, 3, 2)
    stacked = Matrix([row for j in range(3) for row in (p ** j).rows])
    assert rank(stacked) == 6


def test_quiver_algebra_dimensions_and_family_sizes():
    sl = quiver_construction(3, 2, "sl")
    gl = quiver_construction(3, 2, "gl")
    assert sl.algebra.dim == 2 * 9 - 1
    assert gl.algebra.dim == 2 * 9
    assert len(sl.family) == 2
    assert len(gl.family) == 3
    assert sl.expected.degrees == (2, 4)
    assert gl.expected.degrees == (0, 2, 4)


# -- symmetric/skew dual pairs ----------------------------------------------


@pytest.mark.parametrize("n,diag", [(4, [-1, -2, 1, 2]), (5, [-1, -2, 1, 2, 0])])
def test_sym_skewdual_witness_diagonalises_f1(n, diag):
    cons = sym_skewdual_construction(n)
    val = cons.family[0].matrix_at(cons.witness)
    expect = Matrix([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
    assert (val - expect).is_zero()


def test_sym_skewdual_family_traceless_and_independent_at_witness():
    cons = sym_skewdual_construction(5)
    for f in cons.family:
        assert f.matrix_at(cons.witness).trace() == 0
    vals = values_matrix_at(cons.family, cons.witness)
    assert rank(vals) == len(cons.family) == 2


# -- symmetric pairs ---------------------------------------------------------


def test_sym_skew_group_covariance_identity():
    vs = MultiPoly.variables(10)
    a = Matrix([[vs[0], vs[1]], [vs[1], vs[2]]])
    b = Matrix([[vs[3], vs[4]], [vs[4], vs[5]]])
    g = Matrix([[vs[6], vs[7]], [vs[8], vs[9]]])
    gt = Matrix([[vs[6], vs[8]], [vs[7], vs[9]]])
    ag = g * a * gt
    bg = g * b * gt
    lhs = bg * adjugate(ag) * g
    d = det(g)
    rhs = (g * (b * adjugate(a))).map(lambda e: e * d * d)
    assert (lhs - rhs).is_zero()


def test_sym_skew_odd_control_fails_kernel():
    cons = sym_skew_construction(3)
    names = [c.name for c in cons.controls]
    assert "kernel_phi_control_odd" in names
    control = cons.controls[names.index("kernel_phi_control_odd")]
    assert kernel_phi_check(control.covariant, CheckContext("exact")).verdict == "proved_nonzero"


def test_sym_skew_family_members_in_kernel_exactly():
    cons = sym_skew_construction(3)
    assert len(cons.family) == 1
    assert kernel_phi_check(cons.family[0], CheckContext("exact")).verdict == "proved_zero"


# -- skew minor matrices ------------------------------------------------------


def test_minor_skew_by_columns_frozen_point():
    m = Matrix([[1, 2, 3, 4], [5, 6, 7, 8]])
    a = minor_skew_by_columns(m)
    assert a.rows == [
        [0, 4, -8, 4],
        [-4, 0, 12, -8],
        [8, -12, 0, 4],
        [-4, 8, -4, 0],
    ]
    assert (m * a).is_zero()


def test_minor_skew_by_rows_frozen_point():
    m = Matrix([[1, 2], [3, 4], [5, 6], [7, 8]])
    a = minor_skew_by_rows(m)
    assert a.rows == [
        [0, 2, -4, 2],
        [-2, 0, 6, -4],
        [4, -6, 0, 2],
        [-2, 4, -2, 0],
    ]
    assert (a * m).is_zero()


def test_sp_so_minor_member_annihilates_point():
    cons = sp_so_construction(1, "iii")
    rng_point = [1, 2, 3, 4, 5, 6, 7, 8]
    fmin = cons.family[-1]
    val = fmin.matrix_at(rng_point)
    # the so(4) block of the value is skew
    sub = val.submatrix(range(2, 6), range(2, 6))
    assert (sub + sub.transpose()).is_zero()


def test_so_copies_minor_annihilates_module_point():
    cons = so_copies_construction(2)
    point = [1, 2, 3, 4, 5, 6, 7, 8]
    m = Matrix([[point[2 * i + j] for j in range(2)] for i in range(4)])
    val = cons.family[0].matrix_at(point)
    assert (val * m).is_zero()


# -- identity extras -----------------------------------------------------------


def test_identity_extra_witness_re_evaluates_in_both_modes():
    def values(c):
        yield "square", (c[0] + c[1]) ** 2 - c[0] ** 2 - c[1] ** 2 - 2 * c[0] * c[1]
        yield "pair", Matrix([[0, c[0] * c[1] - c[2]]])  # false: not identically 0

    def value_at(tag, point):
        name, (i, j) = tag
        return dict(values(point))[name].rows[i][j]

    extra = identity_extra("false", 3, 2, values)
    res = extra.run(CheckContext("exact"))
    tag, (point, value) = res.witness
    assert (res.verdict, res.mode, tag) == ("proved_nonzero", "exact", ("pair", (0, 1)))
    assert value != 0 and value_at(tag, point) == value
    res = extra.run(CheckContext("sampled", seed=3))
    tag, v, value = res.witness
    assert (res.verdict, res.mode, tag) == ("proved_nonzero", "sampled", ("pair", (0, 1)))
    assert value != 0 and value_at(tag, v) == value


def test_trace_zero_past_the_cutoffs_resolves_to_sampled():
    cons = build_construction(get_entry("ex6.1"), {"n": 6})
    extra = next(e for e in cons.extras if e.name == "trace_zero")
    res = extra.run(CheckContext())
    assert (res.verdict, res.mode, res.trials) == ("sampled_zero", "sampled", 20)


# -- registry and manifest ----------------------------------------------------


def test_resolve_id_handles_aliases_and_case():
    assert resolve_id("adjoint") == "ex-adjoint"
    assert resolve_id("EX5.2") == "ex5.2"
    assert resolve_id("quiver-gl") == "ex5.3/gl"
    assert resolve_id("tri-sl") == "ex5.1"
    assert resolve_id("sp-so") == "ex6.3/i"
    with pytest.raises(UnknownEntryError):
        resolve_id("no-such-entry")


def test_registry_lists_all_entries():
    ids = [e.id for e in all_entries()]
    assert ids == sorted(ids)
    assert len(ids) == 11
    for want in ("ex-adjoint", "ex5.1", "ex5.2", "ex5.3", "ex5.3/gl",
                 "ex6.1", "ex6.2", "ex6.3/i", "ex6.3/ii", "ex6.3/iii", "ex6.4"):
        assert want in ids


def test_build_construction_parameter_validation():
    with pytest.raises(ParameterError):
        build_construction(get_entry("ex6.1"), {"n": 3})
    with pytest.raises(ParameterError):
        build_construction(get_entry("ex5.2"), {"n": 3})
    with pytest.raises(ParameterError):
        build_construction(get_entry("ex5.3"), {"j": 1})


def test_action_entries_are_normalised():
    """No module of the catalog or the tables stores an integer action entry
    as a Fraction: the action, its derivatives and the sampled directions
    then stay in int arithmetic."""
    modules = [(e.id, build_construction(e, {}).module) for e in all_entries()]
    modules += [(r.id, r.module_spec.build(dict(r.module_spec.default_params)))
                for r in all_rows() if r.module_spec is not None]
    assert len(modules) > len(all_entries())
    for label, rep in modules:
        entries = [c for rows in rep.nonzero_rows for _, row in rows for _, c in row]
        assert entries, label
        assert not [c for c in entries if type(c) is Fraction and c.denominator == 1], label


def test_manifest_check_lines_match_fresh_constructions():
    lines = [l for l in load_manifest() if l.kind == "check"]
    assert len(lines) >= 25
    for line in lines:
        entry = get_entry(line.target)
        cons = build_construction(entry, dict(line.params))
        exp = cons.expected
        assert exp.dim_v == line.values["dim_v"], line.target
        assert exp.rank == line.values["l"], line.target
        assert exp.quotient_degree == line.values["q"], line.target
        assert list(exp.degrees) == list(line.values["degrees"]), line.target
        assert exp.audit_verdict == line.values["audit"], line.target
        assert exp.quotient_dim == line.values["quotient_dim"], line.target


def test_find_line_round_trip():
    line = find_line("check", "ex6.3/iii", {"m": 2})
    assert line is not None
    assert line.values["q"] == 12
    assert find_line("check", "ex6.3/iii", {"m": 9}) is None
