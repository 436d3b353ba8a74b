"""Symbolic lifts on the dual of q = g x V*: the oracles for the lift rows.

The library checks lift invariance and Poisson commutativity through closed
forms on V (see the ``semicov.covariants`` module docstring).  The functions
here build the lifts F_hat(xi, v) = <xi, F(v)> as polynomials on q* and
apply the definitions directly: the unipotent substitution xi -> xi + mu(v,
zeta) and the Lie-Poisson bracket of q*.  Tests compare both sides.
``phi_by_products`` expands phi(F) = F(v).v with polynomial products, the
oracle for the exponent-shift expansion of ``covariants.phi_polys``.
"""

from __future__ import annotations

from typing import Sequence

from semicov.covariants import Covariant
from semicov.linalg import is_scalar, normalize_scalar
from semicov.poly import MultiPoly
from semicov.semidirect import SemidirectProduct


def shift(p: MultiPoly, offset: int, num_vars: int) -> MultiPoly:
    """Embed p into a ring of num_vars variables, variable i going to offset + i."""
    if offset + p.num_vars > num_vars:
        raise ValueError("shifted ring too small")
    lead = (0,) * offset
    tail = (0,) * (num_vars - offset - p.num_vars)
    return MultiPoly(num_vars, {lead + e + tail: c for e, c in p.terms.items()})


def lift_polynomial(F: Covariant, num_vars: int | None = None) -> MultiPoly:
    """The lift (xi, v) -> <xi, F(v)>, variables xi (dim g) then v (dim V).

    ``num_vars`` pads the ring with trailing variables (zeta, say).
    """
    dg = F.rep.algebra.dim
    n = num_vars if num_vars is not None else dg + F.rep.dim_v
    acc = MultiPoly.zero(n)
    for a, comp in enumerate(F.components):
        if not comp.is_zero():
            acc = acc + MultiPoly.variable(n, a) * shift(comp, dg, n)
    return acc


def lift_value(F: Covariant, xi: Sequence, v: Sequence):
    """<xi, F(v)> at a numeric point, straight from the formula."""
    acc = 0
    for x, c in zip(xi, F.coords_at(v)):
        acc = acc + x * c
    return normalize_scalar(acc) if is_scalar(acc) else acc


def moment_poly(q: SemidirectProduct, a: int, n: int) -> MultiPoly:
    """mu_a(v, zeta) = <zeta, e_a . v> in the (xi, v, zeta) ring of n variables."""
    dg, dv = q.dim_g, q.dim_v
    terms: dict = {}
    for j, row in q.rep.nonzero_rows[a]:
        for i, cij in row:
            exp = [0] * n
            exp[dg + i] += 1
            exp[dg + dv + j] += 1
            key = tuple(exp)
            terms[key] = terms.get(key, 0) + cij
    return MultiPoly(n, terms)


def lift_change_polynomial(q: SemidirectProduct, F: Covariant) -> MultiPoly:
    """F_hat(xi + mu(v, zeta), v) - F_hat(xi, v) in the (xi, v, zeta) ring."""
    n = q.dim_g + 2 * q.dim_v
    hat = lift_polynomial(F, n)
    images = MultiPoly.variables(n)
    for a in range(q.dim_g):
        images[a] = images[a] + moment_poly(q, a, n)
    return hat.substitute(images, n) - hat


def _unit_exp(n: int, c: int) -> tuple:
    e = [0] * n
    e[c] = 1
    return tuple(e)


def poisson_bracket_polys(lie, f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """{f, g} on the dual of a Lie algebra, as a polynomial.

    Both arguments live in the coordinate ring of the dual (one variable per
    basis element, in basis order)."""
    n = lie.dim
    if f.num_vars != n or g.num_vars != n:
        raise ValueError("polynomials must live on the dual of the algebra")
    df = [f.partial(u) for u in range(n)]
    dg = [g.partial(u) for u in range(n)]
    acc = MultiPoly.zero(n)
    for (u, w), entry in lie.brackets.items():
        cross = df[u] * dg[w] - df[w] * dg[u]
        if cross.is_zero():
            continue
        lin = MultiPoly(n, {_unit_exp(n, c): coeff for c, coeff in entry.items()})
        acc = acc + lin * cross
    return acc


def poisson_bracket_at(lie, f: MultiPoly, g: MultiPoly, eta: Sequence):
    """{f, g} evaluated at a point of the dual."""
    n = lie.dim
    df = [f.partial(u).evaluate(eta) for u in range(n)]
    dg = [g.partial(u).evaluate(eta) for u in range(n)]
    acc = 0
    for (u, w), entry in lie.brackets.items():
        cross = df[u] * dg[w] - df[w] * dg[u]
        if cross == 0:
            continue
        lin = sum(coeff * eta[c] for c, coeff in entry.items())
        acc = acc + lin * cross
    return normalize_scalar(acc)


def phi_by_products(F: Covariant) -> list[MultiPoly]:
    """phi(F)(v) = F(v).v by polynomial products: the components of F act,
    through ``Representation.act``, on V's coordinate polynomials."""
    nv = F.rep.dim_v
    out = F.rep.act(F.components, MultiPoly.variables(nv))
    return [o if isinstance(o, MultiPoly) else MultiPoly.const(nv, o) for o in out]
