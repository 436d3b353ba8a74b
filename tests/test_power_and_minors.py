"""One implementation per arithmetic operation: ``linalg.power`` and
``linalg.minor_skew`` against plain oracles.

* ``power`` serves ``Matrix``, ``MultiPoly`` and the dual numbers of
  ``covariants``; for e = 0..9 it gives the value of e - 1 plain products
  (``one()`` for e = 0), with the same entry and coefficient types.
* ``minor_skew`` reads every maximal minor from one memoised table; the
  oracle takes one determinant per deleted column pair.  The shapes are
  those the catalog uses: 2m x (2m+2) for ex6.3/iii at m = 1, 2 and
  n x (n+2) for ex6.4 at n = 2, 3.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from linalg_oracles import minor_skew as oracle_minor_skew
from semicov.covariants import _Dual
from semicov.linalg import Matrix, minor_skew, power
from semicov.poly import MultiPoly

EXPONENTS = range(10)


def _typed(x):
    """A value with the types of its scalars, for exact comparison."""
    if isinstance(x, Matrix):
        return [[_typed(a) for a in r] for r in x.rows]
    if isinstance(x, MultiPoly):
        return (x.num_vars, {e: (type(c), c) for e, c in x.terms.items()})
    if isinstance(x, _Dual):
        return (_typed(x.a), _typed(x.b))
    return (type(x), x)


def _plain_power(x, e: int, one):
    out = one
    for k in range(e):
        out = x if k == 0 else out * x
    return out


def _poly(rng: random.Random) -> MultiPoly:
    def coeff():
        return Fraction(rng.randint(-3, 3), rng.choice([1, 2]))

    return MultiPoly(2, {(rng.randint(0, 2), rng.randint(0, 1)): coeff() for _ in range(3)})


def _matrices():
    rng = random.Random(5)
    ints = Matrix([[rng.randint(-3, 3) or 1 for _ in range(3)] for _ in range(3)])
    fracs = Matrix([[Fraction(rng.randint(1, 5), rng.choice([2, 3])) for _ in range(3)]
                    for _ in range(3)])
    x, y = MultiPoly.variables(2)
    polys = Matrix([[x + 1, y], [x * y, 2 * y - x]])
    return [("int", ints), ("fraction", fracs), ("multipoly", polys)]


@pytest.mark.parametrize("kind,m", _matrices(), ids=[k for k, _ in _matrices()])
@pytest.mark.parametrize("e", EXPONENTS)
def test_matrix_power_is_repeated_product(kind, m, e):
    assert _typed(m**e) == _typed(_plain_power(m, e, Matrix.identity(m.nrows)))


@pytest.mark.parametrize("e", EXPONENTS)
def test_poly_power_is_repeated_product(e):
    rng = random.Random(e)
    half = MultiPoly.const(2, Fraction(1, 2))
    for p in (_poly(rng), MultiPoly.variable(2, 1) - 3, MultiPoly.zero(2), half):
        want = _plain_power(p, e, MultiPoly.const(2, 1))
        assert _typed(p**e) == _typed(want)
        assert _typed(power(p, e, lambda: MultiPoly.const(2, 1))) == _typed(want)


@pytest.mark.parametrize("e", EXPONENTS)
def test_dual_power_is_repeated_product(e):
    for d in (_Dual(3, -2), _Dual(Fraction(2, 3), Fraction(-5, 2)), _Dual(-1, 7)):
        assert _typed(d**e) == _typed(_plain_power(d, e, _Dual(1)))


def test_power_rejects_negative_exponents():
    with pytest.raises(ValueError):
        power(MultiPoly.variable(1, 0), -1, lambda: MultiPoly.const(1, 1))
    with pytest.raises(ValueError):
        Matrix.identity(2) ** -2


SHAPES = [(2, 4), (4, 6), (3, 5)]  # ex6.3/iii m = 1 and ex6.4 n = 2; m = 2; n = 3


def _scalar_matrix(rows: int, cols: int, rng: random.Random, fractions: bool) -> Matrix:
    def entry():
        a = rng.randint(-4, 4)
        return Fraction(a, rng.choice([1, 2, 3])) if fractions else a

    return Matrix([[entry() for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
def test_minor_skew_matches_det_per_column_pair(shape, fractions):
    rng = random.Random(shape[0] * 10 + fractions)
    for _ in range(5):
        m = _scalar_matrix(*shape, rng, fractions)
        assert _typed(minor_skew(m)) == _typed(oracle_minor_skew(m))


@pytest.mark.parametrize("shape", SHAPES)
def test_minor_skew_symbolic_matches_det_per_column_pair(shape):
    rows, cols = shape
    xs = MultiPoly.variables(rows * cols)
    m = Matrix([xs[i * cols:(i + 1) * cols] for i in range(rows)])
    got = minor_skew(m)
    assert _typed(got) == _typed(oracle_minor_skew(m))
    assert (m * got).is_zero()  # each row of m is in the kernel of its minor matrix


def test_minor_skew_needs_two_more_columns_than_rows():
    with pytest.raises(ValueError):
        minor_skew(Matrix.zeros(2, 3))
