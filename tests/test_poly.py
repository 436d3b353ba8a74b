"""Sparse polynomial ring and zero-test behaviour."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semicov.poly import (
    NEG_INF,
    CheckContext,
    CutoffExceeded,
    MultiPoly,
    poly_is_zero,
)


def rand_poly(rng, num_vars=3, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(num_vars))
        terms[e] = rng.randint(-5, 5)
    return MultiPoly(num_vars, terms)


def test_construction_normalises():
    p = MultiPoly(2, {(1, 0): Fraction(4, 2), (0, 0): 0})
    assert p.terms == {(1, 0): 2}
    assert isinstance(p.terms[(1, 0)], int)


def test_degree_and_zero():
    z = MultiPoly.zero(3)
    assert z.is_zero() and z.degree() is NEG_INF
    x, y, _ = MultiPoly.variables(3)
    p = x * x * y + y
    assert p.degree() == 3
    assert not p.is_homogeneous()
    assert (x * y).is_homogeneous(2)


def test_arithmetic_frozen():
    x, y = MultiPoly.variables(2)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) * (x - 1) == x * x - 1
    assert (x + y) ** 3 == x**3 + 3 * x**2 * y + 3 * x * y**2 + y**3
    assert x / 2 == x * Fraction(1, 2)


def test_evaluate_exact():
    x, y = MultiPoly.variables(2)
    p = x**2 * y - Fraction(1, 3) * y
    assert p.evaluate([2, 3]) == 12 - 1
    assert p.evaluate([Fraction(1, 2), 4]) == 1 - Fraction(4, 3)


def test_partial_derivative():
    x, y = MultiPoly.variables(2)
    p = x**3 * y + 2 * x
    assert p.partial(0) == 3 * x**2 * y + 2
    assert p.partial(1) == x**3


def test_substitute_composition():
    x, y = MultiPoly.variables(2)
    p = x * y + x
    u, v, w = MultiPoly.variables(3)
    q = p.substitute([u + v, w], 3)
    assert q == (u + v) * w + u + v
    # scalar images behave like evaluation
    r = p.substitute([2, 5], 1)
    assert r == MultiPoly.const(1, 12)


def test_coefficients_in_last_var():
    vs = MultiPoly.variables(3)
    lam = vs[2]
    q = (vs[0] + lam * vs[1]) * (vs[0] - lam * vs[1])
    coeffs = q.coefficients_in_last_var()
    a, b = MultiPoly.variables(2)
    assert coeffs[0] == a * a
    assert coeffs[1].is_zero()
    assert coeffs[2] == -(b * b)


def test_poly_is_zero_exact():
    x, y = MultiPoly.variables(2)
    p = (x + y) ** 2 - x**2 - 2 * x * y - y**2
    res = poly_is_zero(p, mode="exact")
    assert res.verdict == "proved_zero"
    res2 = poly_is_zero(x - y, mode="exact")
    assert res2.verdict == "proved_nonzero"
    point, value = res2.witness
    assert (x - y).evaluate(point) == value != 0


def test_poly_is_zero_sampled():
    x, y = MultiPoly.variables(2)
    p = x * y - y * x
    rng = random.Random(42)
    res = poly_is_zero(p, mode="sampled", rng=rng)
    assert res.verdict == "sampled_zero"
    assert res.trials == 3  # default: total degree (0 for the zero polynomial) + 3
    q = x**2 - y
    res2 = poly_is_zero(q, mode="sampled", rng=random.Random(1))
    assert res2.verdict == "proved_nonzero"
    point, value = res2.witness
    assert q.evaluate(point) == value != 0


def test_poly_is_zero_deterministic():
    x, y = MultiPoly.variables(2)
    q = x**2 * y - 3
    r1 = poly_is_zero(q, mode="sampled", rng=random.Random(9))
    r2 = poly_is_zero(q, mode="sampled", rng=random.Random(9))
    assert r1.witness == r2.witness


class _ScriptedRng:
    """randint stand-in that returns a fixed script of values, then zeros."""

    def __init__(self, *values):
        self.values = list(values)

    def randint(self, lo, hi):
        return self.values.pop(0) if self.values else 0


def test_sampled_trials_count_points_evaluated():
    (x,) = MultiPoly.variables(1)
    res = poly_is_zero(x, mode="sampled", rng=_ScriptedRng(0, 0, 5), trials=10)
    assert res.verdict == "proved_nonzero"
    assert res.trials == 3
    assert res.witness == ([5], 5)


def test_check_context_rejects_bad_knobs():
    for bad in (0, -1):
        for knob in ("samples", "bound"):
            with pytest.raises(ValueError, match="%s must be at least 1" % knob):
                CheckContext("sampled", **{knob: bad})
    with pytest.raises(ValueError):
        CheckContext("symbolic")


def test_exact_failure_always_has_a_witness():
    # the random search only ever draws the origin, where v0 vanishes; the
    # deterministic fallback still finds a point
    v0, _ = MultiPoly.variables(2)
    res = poly_is_zero(v0, mode="exact", rng=_ScriptedRng())
    assert res.verdict == "proved_nonzero"
    assert res.witness == ([1, 0], 1)
    x, y = MultiPoly.variables(2)
    for p in (y * (y - 1) * (y - 2), (x - 1) * x * y**2 - y, x**3 * (y - 3) + 7):
        point, value = poly_is_zero(p, mode="exact", rng=_ScriptedRng()).witness
        assert value == p.evaluate(point) != 0


def test_exact_cutoff_refusal():
    wide = MultiPoly.variable(41, 0)
    with pytest.raises(CutoffExceeded):
        poly_is_zero(wide, mode="exact")
    x = MultiPoly.variable(1, 0)
    deep = x**9
    with pytest.raises(CutoffExceeded):
        poly_is_zero(deep, mode="exact")
    # auto mode falls back to sampling instead of refusing
    res = poly_is_zero(deep - x**9, mode="auto", rng=random.Random(0))
    assert res.is_zero


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_ring_axioms(seed):
    rng = random.Random(seed)
    p, q, r = (rand_poly(rng) for _ in range(3))
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p - p == MultiPoly.zero(3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_evaluation_is_ring_map(seed):
    rng = random.Random(seed)
    p, q = rand_poly(rng), rand_poly(rng)
    point = [rng.randint(-4, 4) for _ in range(3)]
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
