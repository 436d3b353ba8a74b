"""Classical algebras, module constructions, stabilisers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from semicov.lie import (
    FormConvention,
    LieAlgebra,
    Matrix,
    adjoint_rep,
    defining,
    direct_sum,
    dual,
    ext_power,
    gl,
    is_abelian,
    lift_factor,
    product,
    sl,
    so,
    sp,
    stabiliser,
    stabiliser_sample,
    subalgebra,
    subrepresentation,
    sym_power,
    tensor,
    Subspace,
)


def test_classical_dimensions():
    assert gl(3).dim == 9
    assert sl(2).dim == 3
    assert sl(4).dim == 15
    assert so(3).dim == 3
    assert so(5).dim == 10
    assert sp(4).dim == 10
    assert sp(6).dim == 21


def test_classical_matrix_conditions():
    form = FormConvention.default_skew(4)
    g = sp(4)
    for m in g.basis:
        cond = m.transpose() * form + form * m
        assert cond.is_zero()
    h = so(3)
    for m in h.basis:
        assert (m.transpose() + m).is_zero()


def test_so_with_custom_form():
    # anti-diagonal symmetric form
    form = Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    g = so(3, form)
    assert g.dim == 3
    for m in g.basis:
        assert (m.transpose() * form + form * m).is_zero()


def test_jacobi_exact():
    for g in (sl(3), so(4), sp(4)):
        ok, witness = g.check_jacobi()
        assert ok, witness


def test_product_structure():
    g = product(sl(2), sl(2), sl(2))
    assert g.dim == 9
    assert len(g.factors) == 3
    ok, _ = g.check_jacobi()
    assert ok
    # cross-factor brackets vanish
    e0 = [0] * 9
    e0[0] = 1
    e3 = [0] * 9
    e3[3] = 1
    assert g.bracket_coords(e0, e3) == [0] * 9
    # block-diagonal matrices
    assert g.basis[0].nrows == 6
    assert g.factor_basis_range(1) == range(3, 6)


def test_representation_homomorphism():
    g = sl(3)
    r = defining(g)
    ok, _ = r.check_homomorphism()
    assert ok
    for mod in (dual(r), tensor(r, dual(r)), sym_power(r, 2), ext_power(r, 2)):
        ok, w = mod.check_homomorphism()
        assert ok, w


def test_module_dimensions():
    r = defining(sl(4))
    assert sym_power(r, 2).dim_v == 10
    assert ext_power(r, 2).dim_v == 6
    assert ext_power(r, 3).dim_v == 4
    assert tensor(r, r).dim_v == 16
    assert direct_sum(r, r, dual(r)).dim_v == 12
    s = defining(sl(2))
    assert sym_power(s, 3).dim_v == 4


def test_dual_involution():
    r = defining(sl(3))
    dd = dual(dual(r))
    assert all(a == b for a, b in zip(dd.action, r.action))


def test_lift_factor_acts_by_zero_elsewhere():
    g = product(sl(2), sl(3))
    r = lift_factor(g, 0, defining(sl(2)))
    assert r.dim_v == 2
    for a in range(3, g.dim):
        assert r.action[a].is_zero()
    ok, _ = r.check_homomorphism()
    assert ok


def test_tensor_over_product_factors():
    g = product(sl(2), sl(2))
    v = tensor(lift_factor(g, 0, defining(sl(2))), lift_factor(g, 1, defining(sl(2))))
    assert v.dim_v == 4
    ok, _ = v.check_homomorphism()
    assert ok
    # generic stabiliser is a twisted diagonal copy of sl2
    assert _generic_dim(v, seed=3) == 3


def test_subrepresentation_primitive_ext2_sp4():
    g = sp(4)
    r = ext_power(defining(g), 2)
    form = FormConvention.default_skew(4)
    import itertools

    wedge = list(itertools.combinations(range(4), 2))
    # kernel of the symplectic pairing functional is the 5-dim primitive part
    functional = [form[i, j] for (i, j) in wedge]
    vectors = []
    pivot = next(k for k, c in enumerate(functional) if c != 0)
    for k in range(6):
        if k == pivot:
            continue
        v = [0] * 6
        v[k] = functional[pivot]
        v[pivot] = -functional[k]
        vectors.append(v)
    sub = subrepresentation(r, vectors, label="primitive")
    assert sub.dim_v == 5
    ok, w = sub.check_homomorphism()
    assert ok, w


def test_subrepresentation_rejects_non_invariant():
    r = defining(sl(2))
    t = tensor(r, r)
    with pytest.raises(ValueError):
        subrepresentation(t, [[1, 0, 0, 0]])


def test_stabiliser_adjoint():
    g = sl(2)
    r = adjoint_rep(g)
    # stabiliser of h is the Cartan line through h
    h = [0, 0, 1]
    s = stabiliser(r, h)
    assert s.dim == 1
    assert s.contains([0, 0, 5])
    assert not s.contains([1, 0, 0])


def _generic_dim(r, seed, samples=20):
    return min(s.dim for _, s in stabiliser_sample(r, random.Random(seed), samples))


def test_generic_stabiliser_dim_adjoint():
    assert _generic_dim(adjoint_rep(sl(2)), seed=0) == 1
    assert _generic_dim(adjoint_rep(sl(3)), seed=0) == 2
    assert _generic_dim(adjoint_rep(so(5)), seed=0) == 2


def test_generic_stabiliser_stable_across_seeds():
    r = adjoint_rep(sl(3))
    dims = {_generic_dim(r, seed=s) for s in (1, 2, 3, 4)}
    assert dims == {2}


def test_generic_point_matches_estimate():
    # the sample pairs each drawn point, in [-bound, bound], with its exact
    # stabiliser; one stream gives one sample
    r = adjoint_rep(sl(3))
    sample = stabiliser_sample(r, random.Random(5), samples=6, bound=3)
    assert len(sample) == 6
    assert sample == stabiliser_sample(r, random.Random(5), samples=6, bound=3)
    for v, s in sample:
        assert len(v) == 8 and all(-3 <= x <= 3 for x in v)
        assert s.dim == stabiliser(r, v).dim
        assert all(x == 0 for k in s.vectors for x in r.act(k, v))
    assert min(s.dim for _, s in sample) == 2


def test_is_abelian_and_subalgebra():
    g = sl(3)
    # Cartan: last two basis vectors (H_1, H_2)
    h1 = [0] * 8
    h1[6] = 1
    h2 = [0] * 8
    h2[7] = 1
    cartan = Subspace(8, [h1, h2])
    assert is_abelian(g, cartan)
    sub = subalgebra(g, cartan)
    assert sub.dim == 2 and not sub.brackets

    # e, h span of sl2 inside sl3 is closed but not abelian
    g2 = sl(2)
    e = [1, 0, 0]
    h = [0, 0, 1]
    borel = Subspace(3, [e, h])
    assert is_abelian(g2, borel) is False

    # not closed: span{E12, E23} in sl3 (bracket is E13)
    e12 = [0] * 8
    e12[0] = 1  # unit order: (0,1) first
    e23 = [0] * 8
    # find index of E23 in the sl3 unit order: offdiag row-major
    # (0,1),(0,2),(1,0),(1,2),(2,0),(2,1) -> E23 is (1,2) at index 3
    e23[3] = 1
    with pytest.raises(ValueError):
        is_abelian(g, Subspace(8, [e12, e23]))


def test_structure_constants_from_matrices_rejects_open_sets():
    # [E01, E10] = E00 - E11 is outside the span
    bad = [Matrix.unit(2, 2, 0, 1), Matrix.unit(2, 2, 1, 0)]
    with pytest.raises(ValueError):
        LieAlgebra.from_matrices("bad", bad)


def test_stabiliser_dim_constant_along_orbit_directions():
    r = adjoint_rep(sl(3))
    rng = random.Random(17)
    v = [rng.randint(-5, 5) for _ in range(8)]
    base = stabiliser(r, v).dim
    moved = 0
    for a in range(3):
        w = r.act_basis(a, v)
        shifted = [x + y for x, y in zip(v, w)]
        if stabiliser(r, shifted).dim == base:
            moved += 1
    assert moved >= 2


# -- sparse kernels against dense references kept here ----------------------


def _dense_jacobi(g, rng=None, exhaustive_limit=40, samples=200):
    """check_jacobi as it was first written: dense coordinate vectors."""
    n = g.dim

    def jac(a, b, c):
        ea, eb, ec = ([1 if i == k else 0 for i in range(n)] for k in (a, b, c))
        t1 = g.bracket_coords(ea, g.bracket_coords(eb, ec))
        t2 = g.bracket_coords(eb, g.bracket_coords(ec, ea))
        t3 = g.bracket_coords(ec, g.bracket_coords(ea, eb))
        return all(x + y + z == 0 for x, y, z in zip(t1, t2, t3))

    if n <= exhaustive_limit:
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(b + 1, n):
                    if not jac(a, b, c):
                        return False, (a, b, c)
        return True, None
    rng = rng or random.Random(0)
    for _ in range(samples):
        a, b, c = (rng.randrange(n) for _ in range(3))
        if not jac(a, b, c):
            return False, (a, b, c)
    return True, None


def _random_algebra(rng, n, density):
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            entry = {c: rng.choice([-2, -1, 1, 2, Fraction(1, 2)]) for c in range(n)
                     if rng.random() < density}
            if entry:
                brackets[(a, b)] = entry
    return LieAlgebra("random", n, brackets)


def _broken(g, rng):
    """g with one structure constant nudged."""
    brackets = {k: dict(v) for k, v in g.brackets.items()}
    key = rng.choice(sorted(brackets))
    c = rng.choice(sorted(brackets[key]))
    brackets[key][c] = brackets[key][c] + 1
    return LieAlgebra("broken", g.dim, brackets)


def test_sparse_jacobi_matches_dense_reference():
    rng = random.Random(5)
    algebras = [sl(3), so(4), sp(4), gl(3)]
    algebras += [_broken(g, rng) for g in (sl(3), so(4), sp(4), sl(4))]
    algebras += [_random_algebra(rng, n, d) for n in (3, 4, 6) for d in (0.1, 0.3)]
    verdicts = set()
    for g in algebras:
        want = _dense_jacobi(g)
        assert g.check_jacobi() == want
        verdicts.add(want[0])
        # sampled triples above the limit: same rng draws, same first witness
        assert g.check_jacobi(random.Random(7), 0, 50) == _dense_jacobi(g, random.Random(7), 0, 50)
    assert verdicts == {True, False}


def _dense_brackets(mats):
    """Structure constants from dense commutators and a dense solve."""
    from semicov.linalg import solve

    cols = Matrix.from_cols([m.vec() for m in mats])
    out = {}
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            comm = mats[a] * mats[b] - mats[b] * mats[a]
            x = solve(cols, comm.vec())
            entry = {c: v for c, v in enumerate(x) if v != 0}
            if entry:
                out[(a, b)] = entry
    return out


def test_from_matrices_matches_dense_reference():
    algebras = [f(n) for f in (gl, sl, so) for n in (2, 3, 4)] + [sp(2), sp(4)]
    algebras.append(so(3, Matrix([[0, 0, 1], [0, 2, 0], [1, 0, 0]])))
    algebras.append(so(4, Matrix.diagonal([1, 2, -1, Fraction(1, 3)])))
    for g in algebras:
        assert g.brackets == _dense_brackets(g.basis), g
        assert LieAlgebra.from_matrices("again", g.basis).brackets == g.brackets


def test_act_matches_dense_apply():
    rng = random.Random(11)
    g = sl(3)
    reps = [adjoint_rep(g), defining(g), dual(defining(g)), sym_power(defining(g), 2),
            ext_power(defining(sp(4)), 2), direct_sum(defining(g), adjoint_rep(g))]
    for r in reps:
        for _ in range(5):
            v = [rng.choice([0, 0, 1, -3, 5, Fraction(2, 3)]) for _ in range(r.dim_v)]
            x = [rng.choice([0, 0, 2, -1, Fraction(-1, 2)]) for _ in range(r.algebra.dim)]
            for a in range(r.algebra.dim):
                assert r.act_basis(a, v) == r.action[a].apply(v)
            dense = [0] * r.dim_v
            for a, xa in enumerate(x):
                dense = [o + xa * w for o, w in zip(dense, r.action[a].apply(v))]
            assert r.act(x, v) == dense
