"""Exact linear algebra against independent oracles."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semicov.linalg import (
    inverse,
    Matrix,
    SpanSolver,
    adjugate,
    block_diag,
    char_poly,
    det,
    rank,
    rank_and_kernel,
    solve,
)
from semicov.poly import MultiPoly


def perm_det(m: Matrix):
    """Independent determinant oracle: permutation expansion."""
    n = m.nrows
    acc = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term = term * m[i, perm[i]]
        acc = acc + term
    return acc


def rand_matrix(rng, n, m, bound=6):
    return Matrix([[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)])


def test_rank_and_kernel_frozen():
    m = Matrix([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]])
    r, kern = rank_and_kernel(m)
    assert r == 2
    assert len(kern) == 2
    for v in kern:
        assert m.apply(v) == [0, 0, 0]


def test_rank_nullity_random():
    rng = random.Random(11)
    for _ in range(40):
        n, mm = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(rng, n, mm)
        r, kern = rank_and_kernel(m)
        assert r + len(kern) == mm
        assert r == rank(m)
        for v in kern:
            assert all(x == 0 for x in m.apply(v))


def test_rank_with_fractions():
    # rows proportional: rank 1
    m = Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
    assert rank(m) == 1
    m2 = Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]])
    r, kern = rank_and_kernel(m2)
    assert r == rank(m2) == 2
    assert kern == []


def test_det_against_permutation_oracle():
    rng = random.Random(5)
    for n in (1, 2, 3, 4, 5):
        for _ in range(8):
            m = rand_matrix(rng, n, n)
            assert det(m) == perm_det(m)


def test_det_fraction_entries():
    m = Matrix([[Fraction(1, 2), 2], [3, Fraction(4, 5)]])
    assert det(m) == Fraction(1, 2) * Fraction(4, 5) - 6


def test_adjugate_frozen():
    m = Matrix([[1, 2], [3, 4]])
    assert adjugate(m) == Matrix([[4, -2], [-3, 1]])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_adjugate_identity(n):
    rng = random.Random(100 + n)
    for _ in range(5):
        m = rand_matrix(rng, n, n)
        adj = adjugate(m)
        d = det(m)
        assert adj * m == Matrix.identity(n) * d
        assert m * adj == Matrix.identity(n) * d


def test_adjugate_symbolic_entries():
    xs = MultiPoly.variables(4)
    m = Matrix([[xs[0], xs[1]], [xs[2], xs[3]]])
    adj = adjugate(m)
    assert adj.rows[0][0] == xs[3]
    assert adj.rows[0][1] == -xs[1]
    prod = m * adj
    d = xs[0] * xs[3] - xs[1] * xs[2]
    assert prod.rows[0][0] == d and prod.rows[1][1] == d
    assert prod.rows[0][1].is_zero() and prod.rows[1][0].is_zero()


def test_adjugate_symbolic_order5_uses_leverrier():
    # 5x5 path goes through the Faddeev-LeVerrier recursion; check against
    # the defining identity on a sparse symbolic matrix.
    xs = MultiPoly.variables(5)
    rows = [[0] * 5 for _ in range(5)]
    for i in range(5):
        rows[i][i] = xs[i]
    rows[0][4] = MultiPoly.const(5, 1)
    m = Matrix([[MultiPoly.const(5, v) if isinstance(v, int) else v for v in r] for r in rows])
    adj = adjugate(m)
    prod = m * adj
    d = det(m)
    for i in range(5):
        for j in range(5):
            want = d if i == j else MultiPoly.zero(5)
            assert prod.rows[i][j] == want


def test_char_poly_oracle():
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 5):
        m = rand_matrix(rng, n, n)
        coeffs = char_poly(m)
        assert len(coeffs) == n + 1 and coeffs[0] == 1
        for t in (-2, 0, 1, 3, 10):
            ti = Matrix.identity(n) * t
            val = perm_det(ti - m)
            horner = 0
            for c in coeffs:
                horner = horner * t + c
            assert horner == val


def test_char_poly_symbolic():
    xs = MultiPoly.variables(4)
    m = Matrix([[xs[0], xs[1]], [xs[2], xs[3]]])
    one, c1, c0 = char_poly(m)
    assert one == 1
    assert c1 == -(xs[0] + xs[3])
    assert c0 == xs[0] * xs[3] - xs[1] * xs[2]


def test_solve_and_span_solver():
    m = Matrix([[1, 2], [3, 4], [5, 6]])
    b = [5, 11, 17]
    x = solve(m, b)
    assert x is not None and m.apply(x) == b
    assert solve(m, [1, 0, 0]) is None

    basis = [[1, 0, 1, 0], [0, 1, 1, 0]]
    ss = SpanSolver(basis)
    w = [2, 3, 5, 0]
    assert ss.coords(w) == [2, 3]
    assert ss.coords([0, 0, 0, 1]) is None
    with pytest.raises(ValueError):
        SpanSolver([[1, 2], [2, 4]])


def test_span_solver_polynomial_target():
    x, y = MultiPoly.variables(2)
    basis = [[1, 0], [1, 1]]
    ss = SpanSolver(basis)
    coords = ss.coords([x + y, y])
    assert coords == [x, y]


def test_block_diag_and_kron():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[5]])
    bd = block_diag([a, b])
    assert bd.rows == [[1, 2, 0], [3, 4, 0], [0, 0, 5]]
    k = a.kron(Matrix.identity(2))
    assert k.nrows == k.ncols == 4
    assert k.rows[0] == [1, 0, 2, 0]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(0, 10**6),
)
def test_kernel_annihilation_property(n, seed):
    rng = random.Random(seed)
    m = rand_matrix(rng, rng.randint(1, 4), n)
    r, kern = rank_and_kernel(m)
    assert r + len(kern) == n
    for v in kern:
        assert all(x == 0 for x in m.apply(v))


def test_inverse_small_and_fl_path():
    m = Matrix([[2, 1, 0], [1, 1, 1], [0, 3, 1]])
    assert (inverse(m) * m) == Matrix.identity(3)
    big = Matrix(
        [
            [1, 2, 0, 0, 1],
            [0, 1, 3, 0, 0],
            [1, 0, 1, 1, 0],
            [0, 2, 0, 1, 1],
            [1, 0, 0, 0, 2],
        ]
    )
    assert (big * inverse(big)) == Matrix.identity(5)
    with pytest.raises(ValueError):
        inverse(Matrix([[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        inverse(Matrix([[1, 2, 3], [4, 5, 6]]))


def _sym(m: Matrix):
    import sympy

    return sympy.Matrix(m.nrows, m.ncols, lambda i, j: sympy.Rational(m.rows[i][j]))


def _frac(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_elimination_against_sympy(data):
    """rank, rank_and_kernel, solve and inverse agree with sympy.Matrix.

    Shapes include zero columns and rows that repeat a combination of
    earlier rows, so the eliminations skip columns and stop short.
    """
    sympy = pytest.importorskip("sympy")
    nrows = data.draw(st.integers(1, 5))
    ncols = data.draw(st.integers(1, 5))
    cell = st.one_of(st.just(Fraction(0)), st.just(0), st.integers(-3, 3), small_rationals)
    rows = data.draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    for j in data.draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)):
        for row in rows:
            row[j] = 0
    if nrows > 2 and data.draw(st.booleans()):
        c = data.draw(small_rationals)
        rows[-1] = [a * c + b for a, b in zip(rows[0], rows[1])]
    m = Matrix(rows)
    sm = _sym(m)
    r, kern = rank_and_kernel(m)
    assert r == rank(m) == sm.rank()
    # both sides give the reduced-echelon kernel basis: 1 in each free column
    assert kern == [[_frac(x) for x in v] for v in sm.nullspace()]
    b = data.draw(st.lists(small_rationals, min_size=nrows, max_size=nrows))
    x = solve(m, b)
    consistent = sm.rank() == sm.row_join(sympy.Matrix(b)).rank()
    assert (x is not None) == consistent
    if x is not None:
        assert m.apply(x) == b
    if nrows == ncols:
        if sm.det() == 0:
            with pytest.raises(ValueError):
                inverse(m)
        else:
            assert inverse(m) == Matrix([[_frac(e) for e in row] for row in sm.inv().tolist()])


def _dense_coords(ss: SpanSolver, w):
    """SpanSolver.coords as it was first written: dense transform and residual."""
    c_red = [w[p] for p in ss.pivots]
    out = [sum((ss.transform[i][j] * c_red[i] for i in range(ss.k)), 0) for j in range(ss.k)]
    residual = list(w)
    for cj, bj in zip(out, ss.basis):
        residual = [a - cj * b for a, b in zip(residual, bj)]
    if any(a != 0 for a in residual):
        return None
    return out


def test_span_solver_matches_dense_reference():
    rng = random.Random(3)
    xs = MultiPoly.variables(2)
    cell = [0, 0, 0, 1, -2, 3, Fraction(1, 2)]
    inside = outside = 0
    for _ in range(40):
        m = rng.randint(2, 7)
        k = rng.randint(1, m)
        basis = [[rng.choice(cell) for _ in range(m)] for _ in range(k)]
        if rank(Matrix(basis)) < k:
            continue
        ss = SpanSolver(basis)
        coeffs = [rng.choice([0, 2, -1, Fraction(3, 4), xs[0], xs[0] * xs[1] - 1]) for _ in range(k)]
        w = [sum((c * b[i] for c, b in zip(coeffs, basis)), 0) for i in range(m)]
        got = ss.coords(w)
        assert got == _dense_coords(ss, w) == coeffs
        inside += 1
        other = [rng.choice(cell) for _ in range(m)]
        for target in (other, [a + xs[1] * b for a, b in zip(w, other)]):
            want = _dense_coords(ss, target)
            assert ss.coords(target) == want
            if rank(Matrix(basis + [other])) > k:
                assert want is None
                outside += 1
    assert inside > 20 and outside > 10
    assert SpanSolver([]).coords([0, 0]) == [] and SpanSolver([]).coords([0, 1]) is None


def test_trace_product_from_entries():
    rng = random.Random(9)
    xs = MultiPoly.variables(3)
    cell = [0, 0, 1, -2, Fraction(2, 3), xs[0], xs[1] * xs[2] - 1]
    for n, m in ((1, 1), (2, 3), (4, 4), (3, 5)):
        x = Matrix([[rng.choice(cell) for _ in range(m)] for _ in range(n)])
        y = Matrix([[rng.choice(cell) for _ in range(n)] for _ in range(m)])
        assert x.trace_product(y) == (x * y).trace()
    assert Matrix.zeros(2, 2).trace_product(Matrix.identity(2)) == 0
    with pytest.raises(ValueError):
        Matrix.zeros(2, 3).trace_product(Matrix.zeros(2, 3))
