"""Rank of skew-symmetric matrices by 2x2 pivot blocks, against oracles.

``linalg.skew_rank`` eliminates a skew matrix two indices at a time and keeps
only the upper triangle; it stores only the rows above the trailing zero
block (V* in a Kirillov form of q = g x V*) and pivots into that block first.
Its oracles are sympy's ``DomainMatrix`` rank over QQ and the row-echelon
``linalg.rank``: on Kirillov forms of catalog semidirect products at seeded
points, and on random skew matrices with a planted rank, a planted zero
trailing block of every size, zero rows and Fraction entries.  The index
estimate, which ranks only Kirillov forms, must not reach the row-echelon
rank at all.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import semicov.linalg as linalg
from semicov.catalog import all_entries, build_construction, get_entry
from semicov.linalg import Matrix, rank, skew_rank
from semicov.poly import CheckContext
from semicov.semidirect import SemidirectProduct, index_estimate, kirillov_form


def _qq_rank(m: Matrix) -> int:
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    if m.nrows == 0:
        return 0
    sm = sympy.Matrix(m.nrows, m.ncols, lambda i, j: sympy.Rational(m.rows[i][j]))
    return DomainMatrix.from_Matrix(sm).convert_to(sympy.QQ).rank()


def _agrees(m: Matrix) -> int:
    r = skew_rank(m)
    assert r == rank(m) == _qq_rank(m)
    assert r % 2 == 0
    return r


@pytest.mark.parametrize(
    "entry, params, generic", [("ex6.1", {"n": 4}, 26), ("ex6.1", {"n": 5}, 44), ("ex5.2", {}, None)]
)
def test_kirillov_forms_match_sympy(entry, params, generic):
    q = SemidirectProduct(build_construction(get_entry(entry), params).module)
    draw = CheckContext(seed=3).draw(q.lie.dim, "skew-rank", entry)
    ranks = [_agrees(kirillov_form(q.lie, draw())) for _ in range(3)]
    # a sparse point: eta is one coordinate of V, so the form has rank deficit
    sparse = [0] * q.lie.dim
    sparse[-1] = 1
    ranks.append(_agrees(kirillov_form(q.lie, sparse)))
    assert ranks[-1] < max(ranks)
    if generic is not None:
        assert max(ranks) == generic


def _planted(rng: random.Random, n: int, k: int, fractions: bool) -> Matrix:
    """B^T S B with S a random skew k x k and B random k x n: rank <= k."""
    B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
    S = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            x = rng.randint(-4, 4)
            if fractions:
                x = Fraction(x, rng.choice((1, 2, 3, 5)))
            S[i][j], S[j][i] = x, -x
    return Matrix([[linalg.normalize_scalar(sum(B[p][i] * S[p][t] * B[t][j]
                                                for p in range(k) for t in range(k)))
                    for j in range(n)] for i in range(n)])


def _with_zero_index(m: Matrix, at: int) -> Matrix:
    rows = [r[:at] + [0] + r[at:] for r in m.rows]
    return Matrix(rows[:at] + [[0] * (m.nrows + 1)] + rows[at:])


@pytest.mark.parametrize("fractions", [False, True])
def test_random_skew_matrices_match_sympy(fractions):
    rng = random.Random(41 + fractions)
    deficient = 0
    for trial in range(40):
        n = rng.randint(2, 11)
        k = rng.randint(0, n)
        m = _planted(rng, n, k, fractions)
        if trial % 3 == 0:
            m = _with_zero_index(m, rng.randint(0, n))
        r = _agrees(m)
        assert r <= k
        deficient += r < m.nrows
    assert deficient > 20  # most planted ranks are below full


def _zero_tail(m: Matrix, t: int) -> Matrix:
    """m with its trailing t x t block set to zero (still skew)."""
    h = m.nrows - t
    return Matrix([r[:h] + ([0] * t if i >= h else r[h:]) for i, r in enumerate(m.rows)])


@pytest.mark.parametrize("fractions", [False, True])
def test_planted_zero_tail_block_of_every_size(fractions):
    """Every tail size t = 0..n, odd n included.  On some matrices most
    head-by-tail entries are cut, so head rows meet the tail in one entry or
    none and some pivots must come from the head."""
    rng = random.Random(7 + fractions)
    for n in range(1, 10):
        for t in range(n + 1):
            for trial in range(4):
                m = _zero_tail(_planted(rng, n, rng.randint(0, n), fractions), t)
                if trial >= 2:
                    for i in range(n - t):
                        for k in range(n - t, n):
                            if rng.random() < 0.7:
                                m.rows[i][k] = m.rows[k][i] = 0
                r = _agrees(m)
                assert r <= 2 * min(n - t, n // 2)


def _tail_size(m: Matrix) -> int:
    """The largest t with m[n-t:, n-t:] = 0."""
    h = m.nrows
    while h and not any(m.rows[h - 1][h - 1:]):
        h -= 1
    return m.nrows - h


def test_zero_head_rows_fraction_entries_and_zero_matrices():
    x = [[Fraction(1, 2), 0, Fraction(-3, 7)], [0, 2, Fraction(5, 3)], [1, Fraction(1, 6), 0]]
    # indices 0 and 2 of the head are zero rows; the tail is 5..7
    head = [[0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, Fraction(2, 3), 0] + x[0],
            [0, 0, 0, 0, 0, 0, 0, 0],
            [0, Fraction(-2, 3), 0, 0, 0] + x[1],
            [0, 0, 0, 0, 0] + x[2]]
    rows = head + [[-head[i][k] for i in range(5)] + [0, 0, 0] for k in range(5, 8)]
    m = Matrix(rows)
    assert _tail_size(m) == 3
    assert _agrees(m) == 6
    rows[3][1], rows[1][3] = 0, 0  # the head block is now zero: pivots in the tail only
    assert _agrees(Matrix(rows)) == 6
    for n in range(7):
        assert _agrees(Matrix.zeros(n, n)) == 0
    # row 0 meets the tail {2, 3} once, at its first column, and its head
    # entry is smaller: a head pivot there would fill the tail block
    assert _agrees(Matrix([[0, 1, 3, 0], [-1, 0, 0, 1], [-3, 0, 0, 0], [0, -1, 0, 0]])) == 4


def test_inexact_division_raises(monkeypatch):
    """The exactness check after each Pfaffian step is still wired: a gcd
    that never sees the previous pivot makes every later division fail."""
    m = Matrix([[0 if i == k else 2 * (1 if i < k else -1) for k in range(6)] for i in range(6)])
    assert skew_rank(m) == 6
    monkeypatch.setattr(linalg, "math", SimpleNamespace(lcm=math.lcm, gcd=lambda *a: 1))
    with pytest.raises(ArithmeticError):
        skew_rank(m)


@pytest.mark.parametrize("entry", [e.id for e in all_entries()])
def test_kirillov_forms_end_in_a_zero_block_of_exactly_dim_v(entry):
    """q's basis is g then V*, so ``skew_rank`` finds h = dim g: its fast path
    stores the dim g rows and pivots into V*.  A change of basis order fails
    here first."""
    q = SemidirectProduct(build_construction(get_entry(entry)).module)
    m = kirillov_form(q.lie, CheckContext(seed=0).draw(q.lie.dim, "kirillov", "batch0")())
    assert _tail_size(m) == q.dim_v
    assert _agrees(m) > 0


def test_fraction_entries_share_one_denominator():
    """Denominators differ per row, so scaling each row apart would break
    skew symmetry; one common lcm keeps it."""
    m = Matrix([
        [0, Fraction(1, 2), Fraction(1, 3), 1],
        [Fraction(-1, 2), 0, Fraction(2, 5), Fraction(1, 7)],
        [Fraction(-1, 3), Fraction(-2, 5), 0, 3],
        [-1, Fraction(-1, 7), -3, 0],
    ])
    assert _agrees(m) == 4
    # Pf = a01 a23 - a02 a13 + a03 a12 = a23/2 - 1/21 + 2/5, zero at -74/105
    m.rows[2][3], m.rows[3][2] = Fraction(-74, 105), Fraction(74, 105)
    assert _agrees(m) == 2


def test_small_and_zero_sizes():
    assert skew_rank(Matrix([])) == 0
    assert skew_rank(Matrix([[0]])) == 0
    assert skew_rank(Matrix([[0, 0], [0, 0]])) == 0
    assert skew_rank(Matrix([[0, Fraction(3, 4)], [Fraction(-3, 4), 0]])) == 2


@pytest.mark.parametrize("rows", [
    [[0, 1], [1, 0]],  # symmetric, not skew
    [[0, 1, 2], [-1, 0, 3], [-2, -3, 1]],  # nonzero diagonal
    [[1]],
    [[0, 1, 0], [-1, 0, 0]],  # not square
])
def test_non_skew_input_raises(rows):
    with pytest.raises(ValueError):
        skew_rank(Matrix(rows))


def test_index_estimate_makes_no_row_echelon_rank(record):
    """ex6.1 at n=4: the 20 Kirillov ranks of the index estimate all go to
    ``skew_rank``; ``rank`` and its row-echelon core are never called."""
    q = SemidirectProduct(build_construction(get_entry("ex6.1"), {"n": 4}).module)
    record("linalg.rank", "linalg._eliminate", "linalg.skew_rank")
    est = index_estimate(q.lie, CheckContext())
    assert [path for path, _ in record.log] == ["linalg.skew_rank"] * 20
    assert (est.index, est.max_rank, est.stabilised) == (5, 26, True)
