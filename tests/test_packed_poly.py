"""Packed ``MultiPoly`` against ``sympy.Poly`` and against the tuple oracle.

Every operation of the ring runs on both representations: the packed one of
``semicov.poly`` and ``poly_oracles.TuplePoly``, which keys terms by
exponent tuples.  The two must agree term for term, and sympy must agree on
the polynomial.  The layout itself is checked too: sorted keys give the
tuple order, an exponent past the field width raises instead of carrying
into the next field, and ``terms`` is a fresh tuple-keyed dict: mutating it
leaves the polynomial unchanged.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from poly_oracles import TuplePoly
from semicov.covariants import _Dual
from semicov.poly import FIELD_MASK, MultiPoly, pack, unpack

coeffs = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5])),
)


def term_dicts(n: int, max_exp: int = 3, max_terms: int = 5):
    exps = st.tuples(*[st.integers(0, max_exp)] * n)
    return st.dictionaries(exps, coeffs, max_size=max_terms)


@st.composite
def poly_pairs(draw, count: int = 2, max_exp: int = 3):
    """``count`` term dicts over one ring of 1 to 4 variables."""
    n = draw(st.integers(1, 4))
    return n, [draw(term_dicts(n, max_exp)) for _ in range(count)]


def to_sympy(p, syms) -> sympy.Poly:
    expr = sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**k for s, k in zip(syms, e)))
         for e, c in p.terms.items()),
        sympy.Integer(0),
    )
    return sympy.Poly(expr, *syms, domain="QQ")


def _typed(x):
    """A scalar with its type, or a dual number's two parts with theirs."""
    return (_typed(x.a), _typed(x.b)) if isinstance(x, _Dual) else (type(x), x)


def same(p: MultiPoly, oracle: TuplePoly) -> bool:
    """Term for term, with coefficient types (an integral Fraction is an int)."""
    got = {e: (type(c), c) for e, c in p.terms.items()}
    want = {e: (type(c), c) for e, c in oracle.terms.items()}
    return p.num_vars == oracle.num_vars and got == want


@settings(max_examples=80, deadline=None)
@given(poly_pairs())
def test_ring_operations_match_oracle_and_sympy(data):
    n, (ta, tb) = data
    a, b = MultiPoly(n, ta), MultiPoly(n, tb)
    oa, ob = TuplePoly(n, ta), TuplePoly(n, tb)
    syms = sympy.symbols("x0:%d" % n)
    sa, sb = to_sympy(a, syms), to_sympy(b, syms)
    for got, want, sym in (
        (a * b, oa * ob, sa * sb),
        (a + b, oa + ob, sa + sb),
        (a - b, oa - ob, sa - sb),
        (-a, -oa, -sa),
        (a * Fraction(3, 2), oa * Fraction(3, 2), sa * sympy.Rational(3, 2)),
        (a**3, oa**3, sa**3),
        (a**0, oa**0, sympy.Poly(1, *syms, domain="QQ")),
    ):
        assert same(got, want)
        assert to_sympy(got, syms) == sym
    assert (a == b) == (oa == ob) == (sa == sb)


@settings(max_examples=80, deadline=None)
@given(poly_pairs(count=1, max_exp=4), st.data())
def test_queries_and_calculus_match_oracle_and_sympy(data, draw):
    n, (terms,) = data
    p, o = MultiPoly(n, terms), TuplePoly(n, terms)
    syms = sympy.symbols("x0:%d" % n)
    sp = to_sympy(p, syms)
    assert p.degree() == o.degree() == (sp.total_degree() if not sp.is_zero else p.degree())
    assert p.is_homogeneous() == o.is_homogeneous() == sp.is_homogeneous
    for d in range(4):
        assert p.is_homogeneous(d) == o.is_homogeneous(d)
    for i in range(n):
        assert same(p.partial(i), o.partial(i))
        assert to_sympy(p.partial(i), syms) == sp.diff(syms[i])
    point = draw.draw(st.lists(coeffs, min_size=n, max_size=n))
    value = p.evaluate(point)
    assert type(value) is type(o.evaluate(point)) and value == o.evaluate(point)
    assert value == sp.eval(dict(zip(syms, [sympy.Rational(x.numerator, x.denominator) for x in point])))
    # Fraction coefficients at int, Fraction and dual-number points: the value
    # and its types are the oracle's term-by-term evaluation
    eps = draw.draw(st.lists(coeffs, min_size=n, max_size=n))
    ints, fracs = [int(x) for x in point], [Fraction(x) + Fraction(1, 7) for x in point]
    for q, oq in ((p, o), (p * Fraction(2, 3), o * Fraction(2, 3))):
        for at in (ints, fracs, [_Dual(x, e) for x, e in zip(point, eps)]):
            assert _typed(q.evaluate(at)) == _typed(oq.evaluate(at))
    got, want = p.coefficients_in_last_var(), o.coefficients_in_last_var()
    assert len(got) == len(want) and all(same(g, w) for g, w in zip(got, want))


@settings(max_examples=50, deadline=None)
@given(poly_pairs(count=1), st.integers(1, 3), st.data())
def test_substitute_matches_oracle_and_sympy(data, m, draw):
    n, (terms,) = data
    p, o = MultiPoly(n, terms), TuplePoly(n, terms)
    images = [draw.draw(term_dicts(m, max_exp=2, max_terms=3)) for _ in range(n)]
    got = p.substitute([MultiPoly(m, t) for t in images], m)
    want = o.substitute([TuplePoly(m, t) for t in images], m)
    assert same(got, want)
    xs, ys = sympy.symbols("x0:%d" % n), sympy.symbols("y0:%d" % m)
    composed = to_sympy(p, xs).as_expr().subs(
        {x: to_sympy(MultiPoly(m, t), ys).as_expr() for x, t in zip(xs, images)}, simultaneous=True
    )
    assert to_sympy(got, ys) == sympy.Poly(composed, *ys, domain="QQ")


@settings(max_examples=60, deadline=None)
@given(poly_pairs(count=1))
def test_terms_reads_like_the_tuple_dict(data):
    n, (terms,) = data
    p, o = MultiPoly(n, terms), TuplePoly(n, terms)
    assert p.terms == o.terms and list(p.terms) == [tuple(unpack(k, n)) for k in p.packed]
    assert MultiPoly(n, p.terms) == p  # the constructor takes the dict back


def test_terms_is_a_fresh_dict():
    p = MultiPoly(2, {(1, 0): 2, (0, 3): Fraction(1, 2)})
    terms = p.terms
    assert type(terms) is dict and terms is not p.terms
    terms[(1, 0)] = 7
    terms[(2, 2)] = 1
    del terms[(0, 3)]
    assert p.terms == {(1, 0): 2, (0, 3): Fraction(1, 2)}
    assert p == MultiPoly(2, {(1, 0): 2, (0, 3): Fraction(1, 2)})


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.tuples(*[st.integers(0, 40)] * n), max_size=12)))
def test_sorted_keys_are_the_tuple_order(exps):
    n = len(exps[0]) if exps else 1
    keys = sorted(pack(e) for e in set(exps))
    assert [tuple(unpack(k, n)) for k in keys] == sorted(set(exps))


def test_exponent_past_the_field_width_raises():
    x, y = MultiPoly.variables(2)
    top = x**FIELD_MASK
    assert top.degree() == FIELD_MASK and top.terms == {(FIELD_MASK, 0): 1}
    with pytest.raises(OverflowError):
        top * x
    with pytest.raises(OverflowError):
        x ** (FIELD_MASK + 1)
    with pytest.raises(OverflowError):
        (x + 1) ** 200 * (y + 1) ** 56
    with pytest.raises(OverflowError):
        MultiPoly(2, {(FIELD_MASK, 1): 1})
    # derivatives never raise the degree
    assert (top * y.partial(1)).partial(0) == FIELD_MASK * x ** (FIELD_MASK - 1)


def test_scalar_equality_reads_the_terms():
    x, _ = MultiPoly.variables(2)
    assert MultiPoly.zero(2) == 0 and MultiPoly.zero(2) == Fraction(0)
    assert MultiPoly.const(2, 3) == 3 and MultiPoly.const(2, 3) == Fraction(6, 2)
    assert MultiPoly.const(2, Fraction(1, 2)) == Fraction(1, 2)
    assert x != 0 and x != 1 and x + 1 != 1 and MultiPoly.const(2, 3) != 2
