"""Exact linear algebra against independent oracles."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linalg_oracles import kernel as oracle_kernel, rank_mod_p as oracle_rank_mod_p, rref as oracle_rref
from semicov.catalog import all_rows, build_construction, get_entry, get_row
from semicov.covariants import _Dual
from semicov.lie import default_skew, so, sp, stabiliser_sample
from semicov.linalg import (
    inverse,
    Matrix,
    SpanSolver,
    _eliminate,
    int_rows,
    adjugate,
    block_diag,
    char_poly,
    det,
    normalize_scalar,
    WORD_PRIME,
    product_rank_mod_p,
    rank,
    rank_and_kernel,
    solve,
)
from semicov.poly import CheckContext, MultiPoly


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


def test_adjugate_symbolic_order5_sparse():
    # the defining identity on a sparse symbolic 5x5 matrix
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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_adjugate_symbolic_matches_sympy(n):
    """adj(A + x B + y C) against sympy's adjugate, coefficient by coefficient."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(300 + n)
    x, y = MultiPoly.variables(2)
    a, b, c = (rand_matrix(rng, n, n, 3) for _ in range(3))
    m = Matrix([[a[i, j] + x * b[i, j] + y * c[i, j] for j in range(n)] for i in range(n)])
    sx, sy = sympy.symbols("x y")
    want = sympy.Matrix(n, n, lambda i, j: a[i, j] + sx * b[i, j] + sy * c[i, j]).adjugate()
    got = adjugate(m)
    for i in range(n):
        for j in range(n):
            p = got.rows[i][j]
            terms = p.terms if isinstance(p, MultiPoly) else ({(0, 0): p} if p else {})
            assert terms == sympy.Poly(want[i, j], sx, sy).as_dict()


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


def test_block_diag():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[5]])
    bd = block_diag([a, b])
    assert bd.rows == [[1, 2, 0], [3, 4, 0], [0, 0, 5]]


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


def _orbit_matrix(rep, v) -> Matrix:
    """The columns rho_a(v): the differential of the orbit map at v."""
    return Matrix.from_cols([rep.act_basis(a, v) for a in range(rep.algebra.dim)])


def _sym(m: Matrix):
    import sympy

    return sympy.Matrix(m.nrows, m.ncols, lambda i, j: sympy.Rational(m.rows[i][j]))


def _frac(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_elimination_against_sympy(data):
    """rank, rank_and_kernel, solve, inverse, det and SpanSolver.transform
    agree with sympy.Matrix.

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
        d = det(m)
        assert d == _frac(sm.det()) and type(d) is (int if d.denominator == 1 else Fraction)
        if sm.det() == 0:
            with pytest.raises(ValueError):
                inverse(m)
        else:
            assert inverse(m) == Matrix([[_frac(e) for e in row] for row in sm.inv().tolist()])
    if r == nrows:
        # independent rows: SpanSolver's transform is the identity block of
        # the reduced [rows | I], whose pivots all fall in the rows' columns
        ss = SpanSolver(rows)
        reduced, sym_pivots = sm.row_join(sympy.eye(nrows)).rref()
        assert ss.pivots == list(sym_pivots)
        assert ss.transform == [[_frac(e) for e in reduced.row(i)[ncols:]] for i in range(nrows)]
        assert all(type(t) is int or t.denominator > 1 for row in ss.transform for t in row)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rank_and_kernel_is_the_sympy_rref_nullspace(data):
    """Least-|x| pivots still give the one reduced echelon form: the kernel
    read off sympy's RREF, entry by entry and type by type (an integral
    entry is an int), on int and on Fraction matrices."""
    sympy = pytest.importorskip("sympy")
    nrows, ncols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    ints = st.integers(-9, 9)
    cell = data.draw(st.sampled_from([ints, st.one_of(ints, small_rationals)]))
    rows = data.draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    if nrows > 2 and data.draw(st.booleans()):
        rows[-1] = [2 * a - 3 * b for a, b in zip(rows[0], rows[1])]
    m = Matrix(rows)
    reduced, pivots = _sym(m).rref()
    want = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = -_frac(reduced[ri, fc])
        want.append(v)
    r, kern = rank_and_kernel(m)
    assert r == len(pivots) and kern == want
    assert all(type(x) is int or x.denominator > 1 for v in kern for x in v)


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


def _typed(x):
    """A value with its type, a polynomial's terms in their stored order and
    a dual number's two parts."""
    if isinstance(x, MultiPoly):
        return "poly", [(k, type(c), c) for k, c in x.packed.items()]
    if isinstance(x, _Dual):
        return "dual", _typed(x.a), _typed(x.b)
    return type(x), x


def _naive_product(x: Matrix, y: Matrix) -> list:
    """Row i by column j, a triple loop over k ascending that adds a * b from
    int 0 where both factors are nonzero."""
    out = []
    for i in range(x.nrows):
        row = []
        for j in range(y.ncols):
            acc = 0
            for k in range(x.ncols):
                a, b = x.rows[i][k], y.rows[k][j]
                if a != 0 and b != 0:
                    acc = acc + a * b
            row.append(acc)
        out.append(row)
    return out


def test_product_matches_a_naive_triple_loop():
    """Matrix products, and matrix-vector products, equal the triple loop entry
    by entry with types: ints, Fractions, polynomials (same term order) and
    dual numbers; zero rows and columns, non-square shapes, 1 x 1 and empty
    sides.  The product shares no row with its factors."""
    rng = random.Random(35)
    xs = MultiPoly.variables(3)
    cells = {
        "int": [0, 0, 1, -1, 2, 7],
        "fraction": [0, 0, 3, Fraction(-2, 3), Fraction(5, 4)],
        "poly": [0, 0, 2, Fraction(1, 3), xs[0], xs[1] * xs[2] - Fraction(1, 2), xs[2] ** 2 + xs[0]],
        "dual": [0, 0, -2, Fraction(1, 2), _Dual(3, -1), _Dual(Fraction(2, 3), 5), _Dual(0, 1)],
    }
    shapes = [(1, 1, 1), (2, 3, 4), (4, 1, 3), (3, 3, 3), (1, 5, 1), (5, 2, 1)]
    for kind, cell in cells.items():
        for n, k, m in shapes:
            for _ in range(4):
                x = Matrix([[rng.choice(cell) for _ in range(k)] for _ in range(n)])
                y = Matrix([[rng.choice(cell) for _ in range(m)] for _ in range(k)])
                x.rows[rng.randrange(n)] = [0] * k
                for row in y.rows:
                    row[rng.randrange(m)] = 0
                before = [list(r) for r in x.rows], [list(r) for r in y.rows]
                got, want = x * y, _naive_product(x, y)
                assert (got.nrows, got.ncols) == (n, m), kind
                assert [[_typed(a) for a in r] for r in got.rows] == [[_typed(a) for a in r] for r in want]
                for j in range(m):
                    col = [r[j] for r in y.rows]
                    assert [_typed(a) for a in x.apply(col)] == [_typed(r[j]) for r in want]
                for r in got.rows:
                    r[:] = ["mutated"] * m
                assert ([list(r) for r in x.rows], [list(r) for r in y.rows]) == before
    for x, y, shape in ((Matrix([[], []]), Matrix([]), (2, 0)), (Matrix([]), Matrix([]), (0, 0))):
        got = x * y
        assert (got.nrows, got.ncols, got.rows) == shape + ([[]] * shape[0],)


_ALIAS_CASES = {
    "int": [[2, 4, -6, 1], [1, 0, 3, 0], [3, 4, -3, 1]],
    "mixed": [[Fraction(1, 2), 4, -6, 1], [1, 0, 3, 0], [Fraction(3, 2), 4, Fraction(-3, 1), 1]],
    "fraction": [[Fraction(1, 2), Fraction(4, 3), Fraction(-6, 5), Fraction(1, 3)],
                 [Fraction(1, 3), Fraction(0), Fraction(3, 7), Fraction(0)],
                 [Fraction(5, 6), Fraction(4, 3), Fraction(3, 35), Fraction(1, 3)]],
}


@pytest.mark.parametrize("kind", sorted(_ALIAS_CASES))
def test_int_rows_and_eliminations_leave_the_caller_rows(kind):
    """int_rows returns fresh rows with the values and scale of scaling every
    row by its lcm; rank, rank_and_kernel and scalar det, which eliminate in
    place, leave the caller's rows as they were (wide, tall and square)."""
    sympy = pytest.importorskip("sympy")
    rows = _ALIAS_CASES[kind]
    want, scale = [], 1
    for r in rows:
        lcm = math.lcm(*[a.denominator for a in r if type(a) is Fraction])
        want.append([a.numerator * (lcm // a.denominator) if type(a) is Fraction else a * lcm for a in r])
        scale *= lcm
    got, got_scale = int_rows(rows)
    assert got == want and got_scale == scale
    assert all(type(a) is int for r in got for a in r)
    assert not any(g is r for g, r in zip(got, rows))
    for r in got:
        r[0] = "mutated"
    assert rows == _ALIAS_CASES[kind] and rows[0][0] != "mutated"
    for m in (Matrix(rows), Matrix(rows).transpose(), Matrix([r[:3] for r in rows])):
        before = [[(type(a), a) for a in r] for r in m.rows]
        ids = [id(r) for r in m.rows]
        assert rank(m) == sympy.Matrix(m.rows).rank()
        assert rank_and_kernel(m)[0] == rank(m)
        if m.nrows == m.ncols:
            assert det(m) == sympy.Matrix(m.rows).det()
        assert [[(type(a), a) for a in r] for r in m.rows] == before
        assert [id(r) for r in m.rows] == ids


# Normalised scalars, as the library builds them: ints, and Fractions only
# where the value is not integral.
scalars = st.one_of(
    st.just(0), st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4).map(normalize_scalar)
)


def _same_entries(got: list, want: list) -> bool:
    return got == want and all(type(a) is type(b) for a, b in zip(got, want))


def _proportional(got: list, want: list) -> bool:
    """got = c * want for a nonzero rational c (both may be zero)."""
    lead = next((j for j, a in enumerate(want) if a != 0), None)
    if lead is None:
        return all(a == 0 for a in got)
    c = Fraction(got[lead]) / Fraction(want[lead])
    return c != 0 and all(a == c * b for a, b in zip(got, want))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_elimination_core_matches_fraction_oracle(data):
    """The fraction-free core returns the Fraction oracle's pivots and pivot
    rows entry by entry, types included; other rows agree up to scale.

    Shapes: wide and tall, zero columns, a row that repeats a combination of
    earlier ones, and a block carried to the right of the eliminated columns
    (a right-hand side as in solve, an identity as in SpanSolver and inverse).
    """
    nrows = data.draw(st.integers(1, 7))
    ncols = data.draw(st.integers(1, 7))
    rows = data.draw(st.lists(st.lists(scalars, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    for j in data.draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)):
        for row in rows:
            row[j] = 0
    if nrows > 2 and data.draw(st.booleans()):
        c = data.draw(scalars)
        rows[-1] = [normalize_scalar(a * c + b) for a, b in zip(rows[0], rows[1])]
    block = data.draw(st.sampled_from(["none", "rhs", "identity"]))
    if block == "rhs":
        width = data.draw(st.integers(1, 3))
        rows = [row + data.draw(st.lists(scalars, min_size=width, max_size=width)) for row in rows]
    elif block == "identity":
        rows = [row + [1 if i == j else 0 for j in range(nrows)] for i, row in enumerate(rows)]
    want = [list(r) for r in rows]
    want_pivots = oracle_rref(want, ncols)
    got = int_rows(rows)[0]
    assert _eliminate(got, ncols, True) == want_pivots
    for i, (g, w) in enumerate(zip(got, want)):
        if i < len(want_pivots):
            assert _same_entries(g, w), (i, g, w)
        else:
            assert _proportional(g, w), (i, g, w)
    # forward only: echelon form on the same pivots, the same rows below them
    forward = int_rows(rows)[0]
    assert _eliminate(forward, ncols, False) == want_pivots
    for i, (f, w) in enumerate(zip(forward, want)):
        if i < len(want_pivots):
            c = want_pivots[i]
            assert f[c] != 0 and not any(f[:c]) and all(type(a) is int for a in f)
        else:
            assert _proportional(f, w), (i, f, w)
    assert rank(Matrix([r[:ncols] for r in rows])) == len(want_pivots)


@pytest.mark.parametrize("entry, params", [("ex6.1", {"n": 4}), ("ex6.3/iii", {"m": 1})])
def test_stabilisers_match_fraction_oracle(entry, params):
    """Exact stabilisers at sampled points of real orbit matrices equal the
    oracle's kernels, entry by entry and type by type."""
    rep = build_construction(get_entry(entry), params).module
    nonint = 0
    for v, stab in stabiliser_sample(rep, CheckContext(seed=7, samples=10), "oracle").pairs:
        want = oracle_kernel(_orbit_matrix(rep, v))
        assert len(stab.vectors) == len(want) > 0
        for got_v, want_v in zip(stab.vectors, want):
            assert _same_entries(got_v, want_v)
        nonint += sum(type(a) is Fraction for vec in want for a in vec)
    assert nonint > 0  # the kernels exercise the final division by the pivot


@pytest.fixture
def kernels(record):
    """Every matrix handed to ``rank_and_kernel`` from here on, with the result."""
    calls = record("linalg.rank_and_kernel")["linalg.rank_and_kernel"]
    return lambda: [(c.args[0], c.result) for c in calls]


def _assert_oracle_kernels(seen) -> int:
    """Each result is the oracle's rank and kernel, entry by entry and type
    by type; returns the number of Fraction entries."""
    nonint = 0
    for m, (r, kern) in seen:
        want = oracle_kernel(m)
        assert r == m.ncols - len(want) and len(kern) == len(want), (m.nrows, m.ncols)
        for got_v, want_v in zip(kern, want):
            assert _same_entries(got_v, want_v), (m.nrows, m.ncols)
        nonint += sum(type(a) is Fraction for vec in want for a in vec)
    return nonint


@pytest.mark.parametrize("row_id", [row.id for row in all_rows() if row.module_spec is not None])
def test_table_kernels_match_fraction_oracle(kernels, row_id):
    """The kernel of a table row's stabiliser sample at seed 0 (the orbit
    map at v1), the kernel of the stacked rho(x), x in t (V^t, which the
    certificate no longer computes, so the test builds the matrix as the
    certificate's rank A sees it) and the orbit maps at two more points and
    a sparse one equal the oracle's."""
    spec = get_row(row_id).module_spec
    rep = spec.build(dict(spec.default_params))
    sample = stabiliser_sample(rep, CheckContext(), "quotient", rep.label or "V")
    assert sample.proved and len(kernels()) == 1
    rho = rep.action
    stacked = Matrix([[sum(xa * m.rows[i][j] for xa, m in zip(x, rho) if xa) for j in range(rep.dim_v)]
                      for x in sample.t.vectors for i in range(rep.dim_v)])
    seen = kernels() + [(m, rank_and_kernel(m)) for m in [stacked] + _orbit_matrices(row_id, 2)]
    _assert_oracle_kernels(seen)
    assert len(seen[1][1][1]) > 0  # V^t holds v1 at least


@pytest.mark.parametrize("build, n, form", [
    (so, 3, None), (so, 4, None), (so, 5, None), (so, 6, None),
    (sp, 2, None), (sp, 4, None), (sp, 6, None),
    (so, 4, [[3, 1, 0, 2], [1, 2, 1, 0], [0, 1, 4, 1], [2, 0, 1, 5]]),
    (sp, 4, [[0, 2, 1, 0], [-2, 0, 0, 3], [-1, 0, 0, 1], [0, -3, -1, 0]]),
], ids=["so3", "so4", "so5", "so6", "sp2", "sp4", "sp6", "so4-custom", "sp4-custom"])
def test_form_kernels_match_fraction_oracle(kernels, build, n, form):
    """The kernel that gives so_n or sp_n its basis: n^2 unknowns, about half
    of them free, the shape back-substitution serves least well.  A form of
    None is the default form, passed explicitly so the algebra is built
    afresh; the two other forms give Fraction kernel entries."""
    custom = form is not None
    form = Matrix(form) if custom else Matrix.identity(n) if build is so else default_skew(n)
    build(n, form)
    assert len(kernels()) == 1
    assert (_assert_oracle_kernels(kernels()) > 0) == custom


def test_core_entries_stay_within_hadamard_bound():
    """Each eliminated row is divided by its gcd, so it is the primitive form
    of a row of minors and no entry outgrows Hadamard's bound.  Without the
    division the entries square at every step."""
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(5, 8)
        rows = int_rows(rand_matrix(rng, n, n, bound=9).rows)[0]
        bound = math.prod(max(1, math.isqrt(sum(a * a for a in r)) + 1) for r in rows)
        _eliminate(rows, n, False)
        assert max(abs(a) for r in rows for a in r) <= bound


# -- the pivot rules, at the sizes where the choice of pivot matters --------


def test_pivot_rule_depends_on_the_carried_block():
    """Forward with nothing carried, the row with the least |entry| in the
    column becomes the pivot (the first of -2 and 2) and ``factors`` records
    the swap.  With a carried block the first nonzero entry stays the pivot,
    and each operation records the reduced multiplier p / gcd(p, x)."""
    rows = [[4, 1, 0], [-2, 3, 1], [2, 5, 7], [6, 0, 1]]
    forward = [list(r) for r in rows]
    factors: list = []
    assert _eliminate(forward, 3, False, factors) == [0, 1, 2]
    assert forward[0] == [-2, 3, 1] and factors[0] == (-1, 1)
    assert det(Matrix(rows[:3])) == perm_det(Matrix(rows[:3]))

    carried = [r + [int(i == j) for j in range(4)] for i, r in enumerate(rows)]
    factors = []
    assert _eliminate(carried, 3, False, factors) == [0, 1, 2]
    assert carried[0] == [4, 1, 0, 1, 0, 0, 0]
    # row 1: gcd(4, -2) = 2, so 2 r_1 + r_0 = [0, 7, 2, 1, 2, 0, 0]
    assert factors[0] == (1, 2) and carried[1] == [0, 7, 2, 1, 2, 0, 0]


def _orbit_matrices(row_id: str, generic: int) -> list[Matrix]:
    """Orbit matrices of a table row's module at ``generic`` seeded points
    and at one sparse point, where the rank drops."""
    spec = get_row(row_id).module_spec
    rep = spec.build(dict(spec.default_params))
    draw = CheckContext(seed=3).draw(rep.dim_v, "oracle", row_id)
    points = [draw() for _ in range(generic)]
    points.append([int(i in (0, rep.dim_v - 1)) for i in range(rep.dim_v)])
    return [_orbit_matrix(rep, v) for v in points]


@pytest.mark.parametrize(
    "row_id, shape", [("table1/2", (45, 35)), ("table1/3a", (45, 43)), ("table1/4a", (28, 24))]
)
def test_orbit_rank_matches_sympy(row_id, shape):
    """rank of real table-row orbit matrices, whose transpose is eliminated,
    equals sympy's.  sympy's DomainMatrix over QQ is the oracle:
    ``sympy.Matrix.rank`` takes minutes at 45 x 35."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    ranks = []
    for m in _orbit_matrices(row_id, 2):
        assert (m.nrows, m.ncols) == shape
        want = DomainMatrix.from_Matrix(_sym(m)).convert_to(sympy.QQ).rank()
        assert rank(m) == rank(m.transpose()) == want
        ranks.append(want)
    assert ranks[-1] < ranks[0]  # the sparse point is not generic


def test_det_matches_sympy_with_pivot_ties():
    """Scalar det against sympy on 8 x 8 to 12 x 12 int and Fraction
    matrices whose columns repeat |entry| values, so the least one is often
    not the first; some are singular, by a zero column or a dependent row."""
    pytest.importorskip("sympy")
    rng = random.Random(29)
    values = [0, 0, 1, 2, -2, 3, -3, 4, 6, -6]
    for n in range(8, 13):
        for trial in range(4):
            rows = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
            if trial == 1:
                rows = [[normalize_scalar(Fraction(a, rng.choice((1, 2, 3)))) for a in r]
                        for r in rows]
            elif trial == 2:
                for r in rows:
                    r[n // 2] = 0
            elif trial == 3:
                rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1])]
            m = Matrix(rows)
            d = det(m)
            assert d == _frac(_sym(m).det())
            assert type(d) is (int if Fraction(d).denominator == 1 else Fraction)
            assert (d == 0) == (trial >= 2)


def test_rank_eliminates_the_short_side(record):
    """rank of the 45 x 35 orbit matrix of an sl6 table row hands the core
    its 35 columns as rows, not its 45 rows."""
    m = _orbit_matrices("table1/2", 1)[0]
    assert (m.nrows, m.ncols) == (45, 35)
    calls = record("linalg._eliminate")["linalg._eliminate"]
    assert rank(m) == 34
    assert [(len(c.args[0]), c.args[1], c.args[2]) for c in calls] == [(35, 45, False)]


@pytest.mark.parametrize("nrows, given", [(96, True), (64, False)])
def test_rank_keeps_a_tall_stack_with_long_columns_as_given(record, nrows, given):
    """A tall, rank-deficient stack like the stacked rho(t) of the density
    certificate (192 x 48 at ex6.3/iii, m=3, from a basis of t with 80-bit
    entries): 20 dependent rows times 24 columns of 80-bit entries.  Past
    64 rows the core gets the rows as given, at 64 the transpose; the rank
    is sympy's either way."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(48)
    left = [[rng.randint(-3, 3) for _ in range(20)] for _ in range(nrows)]
    right = [[rng.randint(-2**80, 2**80) for _ in range(24)] for _ in range(20)]
    m = Matrix(left) * Matrix(right)
    calls = record("linalg._eliminate")["linalg._eliminate"]
    want = DomainMatrix.from_Matrix(_sym(m)).convert_to(sympy.QQ).rank()
    assert rank(m) == want == 20
    shape = (nrows, 24) if given else (24, nrows)
    assert [(len(c.args[0]), c.args[1], c.args[2]) for c in calls] == [(*shape, False)]


def _rank_mod_p(m: Matrix, p: int = WORD_PRIME) -> int:
    """The rank of m mod p: ``product_rank_mod_p`` of 1 and m's shorter side in integer rows."""
    rows = int_rows(m.rows)[0]
    rows = [list(col) for col in zip(*rows)] if m.nrows > m.ncols else rows
    return product_rank_mod_p([[(i, 1)] for i in range(len(rows))], rows, p)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_rank_mod_p_is_a_lower_bound_on_the_sympy_rank(data):
    """The rank mod p never exceeds the rank over QQ, at the word-size prime and
    at small primes that divide many minors, so it never calls a
    rank-deficient matrix full.  Shapes run from tall to wide, with zero
    rows, rows that repeat a combination of earlier rows (a deficient
    matrix, a tall one always), and Fraction entries."""
    pytest.importorskip("sympy")
    nrows, ncols = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    ints = st.integers(-9, 9)
    cell = data.draw(st.sampled_from([ints, st.one_of(ints, small_rationals)]))
    rows = data.draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    for i in data.draw(st.sets(st.integers(0, nrows - 1), max_size=nrows)):
        rows[i] = [0] * ncols
    if nrows > 2 and data.draw(st.booleans()):
        rows[-1] = [2 * a - 3 * b for a, b in zip(rows[0], rows[1])]
    m = Matrix(rows)
    qq = _sym(m).rank()
    for p in (WORD_PRIME, 2, 3, 7):
        r = _rank_mod_p(m, p)
        assert r <= qq
        if r == min(nrows, ncols):
            assert qq == r
    if min(nrows, ncols) <= 4:
        # scaled rows have entries of at most 9 * 6, so every minor of order
        # at most 4 is below (2 * 54)^4 < p (Hadamard): the ranks agree
        assert _rank_mod_p(m) == qq


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_mod_p_calls_rows_of_multiples_of_p_not_full(data):
    """A matrix of full rank over QQ whose rows are all multiples of p is
    the zero matrix mod p: rank 0, not full.  One row scaled by p leaves a
    square one short of full."""
    pytest.importorskip("sympy")
    p = data.draw(st.sampled_from([WORD_PRIME, 7]))
    n, extra = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 3))
    ints = st.integers(-9, 9)
    rows = data.draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n))
    rows = [[100 if i == j else x for j, x in enumerate(r)] for i, r in enumerate(rows)]
    assert _sym(Matrix(rows)).rank() == n  # strictly diagonally dominant
    tall = rows + data.draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                                     min_size=extra, max_size=extra))
    for shape in (tall, [list(c) for c in zip(*tall)]):  # tall and wide
        scaled = Matrix([[p * x for x in r] for r in shape])
        assert _sym(scaled).rank() == n and _rank_mod_p(scaled, p) == 0
    one = [list(r) for r in rows]
    i = data.draw(st.integers(0, n - 1))
    one[i] = [p * x for x in one[i]]
    r = _rank_mod_p(Matrix(one), p)
    assert _sym(Matrix(one)).rank() == n and r < n
    # the other rows' minors are below 102^4 < 2^30 - 35 (Hadamard)
    assert r == n - 1 or p != WORD_PRIME


@pytest.mark.parametrize("p", [WORD_PRIME, 2, 3])
def test_rank_mod_p_matches_a_plain_gf_p_rank(p):
    """The packed rank equals the textbook GF(p) rank, and that of the
    transpose, on 90 x 60 and 60 x 90 matrices with entries near p - 1 (so
    each slot takes many large updates) in which some rows combine others,
    and on one with Fraction rows.  Eliminated on the short side, each of
    the 60 packed vectors takes up to 59 updates."""
    rng = random.Random(p)
    near = [p - 1, p - 2, 1 - p, 2 * p - 1, 0]
    for trial in range(3):
        base = rng.choice((30, 45, 60))  # independent rows over Q at most
        rows = [[rng.choice(near) for _ in range(60)] for _ in range(base)]
        while len(rows) < 90:
            i, j = rng.sample(range(len(rows)), 2)
            c = rng.randint(1, p - 1)
            rows.append([c * a - b for a, b in zip(rows[i], rows[j])])
        rng.shuffle(rows)
        if trial == 2:
            d = rng.choice((2, 5))
            rows[0] = [normalize_scalar(Fraction(a, d)) for a in rows[0]]
        m = Matrix(rows)
        want = oracle_rank_mod_p(rows, p)
        assert want <= base
        assert _rank_mod_p(m, p) == _rank_mod_p(m.transpose(), p) == want, (trial, want)


def test_rank_mod_p_proves_the_full_slice_rank_of_every_table_module(record):
    """At seed 0 the density product A M of each table row's certificate
    (A = rho(t) stacked, M the orbit map at v1) has rank A mod p, the most
    it can have; sympy confirms both ranks over QQ on the two smallest
    modules.  The certificate lives in ``lie``, which serves the table rows'
    estimator and the entries' stabiliser sample alike."""
    pytest.importorskip("sympy")
    import semicov.catalog.support as support

    specs = [row.module_spec for row in all_rows() if row.module_spec is not None]
    reps = [spec.build(dict(spec.default_params)) for spec in specs]
    calls = record("linalg.product_rank_mod_p", "linalg.rank")
    for rep in reps:
        support.quotient_dim_estimate(rep, CheckContext())
    seen = [(c.args[0], c.args[1], c.result) for c in calls["linalg.product_rank_mod_p"]]
    exact = [(c.args[0], c.result) for c in calls["linalg.rank"]]
    assert len(seen) == len(exact) == len(specs) == 10
    products = []
    for (left, right, r), (a, ra) in zip(seen, exact):
        dense = [[0] * len(right) for _ in left]
        for row, cells in zip(dense, left):
            for j, x in cells:
                row[j] = x
        assert Matrix(dense) == a and 0 < r == ra
        products.append((a, Matrix(dense) * Matrix(right), r))
    for a, m, r in sorted(products, key=lambda amr: amr[1].nrows)[:2]:
        assert _sym(a).rank() == _sym(m).rank() == r


@pytest.mark.parametrize("p", [WORD_PRIME, 2, 3])
def test_product_rank_mod_p_matches_a_plain_gf_p_rank(p):
    """The packed rank of L R equals the textbook GF(p) rank of the product
    taken over Z, with L sparse (60 columns, up to 40 nonzeros a row) and
    both factors' entries near p - 1, so a slot of L R starts near 40 p^2
    and each of its 90 rows takes many large updates: the slot width
    2 bitlen(p) + bitlen(d + k) + 1 is needed in full."""
    rng = random.Random(100 + p)
    near = [p - 1, p - 2, 1 - p, 2 * p - 1]
    for trial in range(3):
        inner = rng.choice((20, 35, 60))  # the rank of R over Q at most
        right = [[rng.choice(near + [0]) for _ in range(45)] for _ in range(inner)]
        while len(right) < 60:
            i, j = rng.sample(range(len(right)), 2)
            c = rng.randint(1, p - 1)
            right.append([c * a - b for a, b in zip(right[i], right[j])])
        left = [sorted((j, rng.choice(near)) for j in rng.sample(range(60), rng.randint(0, 40)))
                for _ in range(90)]
        dense = [[0] * 60 for _ in left]
        for row, cells in zip(dense, left):
            for j, x in cells:
                row[j] = x
        want = oracle_rank_mod_p((Matrix(dense) * Matrix(right)).rows, p)
        assert want <= inner
        assert product_rank_mod_p(left, right, p) == want, (trial, want)
        assert product_rank_mod_p([[(i, 1)] for i in range(60)], right, p) == oracle_rank_mod_p(right, p)
