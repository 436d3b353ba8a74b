"""Semidirect products g x V* with V* abelian, and their index theory.

The combined basis is the g-basis followed by the dual basis of V*.  Points
of the dual space q* = g* + V are stored as (xi, v) coordinate pairs.  The
index of q is estimated from the rank of the Kirillov form at random integer
points, by the skew elimination ``linalg.skew_rank`` (the rank is always
even, and two disjoint sample batches must agree for the estimate to count
as stabilised).  V* is abelian, so each form is zero on V* x V*: only its
dim g rows are eliminated, with pivots taken in V* first.  The estimators
read their seed, sample count and bound from a ``poly.CheckContext``, as
every sampled row does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .lie import LieAlgebra, Representation, Subspace, subalgebra
from .linalg import Matrix, normalize_scalar, rank, skew_rank  # noqa: F401 (rank: re-export)
from .poly import CheckContext


@dataclass
class DualPoint:
    """A point (xi, v) of q* = g* + V."""

    xi: list
    v: list

    def combined(self) -> list:
        return list(self.xi) + list(self.v)


class SemidirectProduct:
    """q = g x V* for a module V of g; V* sits inside q as an abelian ideal."""

    def __init__(self, rep: Representation, name: str = ""):
        self.rep = rep
        self.g = rep.algebra
        self.dim_g = rep.algebra.dim
        self.dim_v = rep.dim_v
        self.dim = self.dim_g + self.dim_v
        brackets: dict = {}
        for key, entry in self.g.brackets.items():
            brackets[key] = dict(entry)
        # [e_a, zeta_j] = - sum_i rho_a[j, i] zeta_i  (contragredient action)
        dg = self.dim_g
        for a in range(dg):
            for j, row in rep.nonzero_rows[a]:
                brackets[(a, dg + j)] = {dg + i: -c for i, c in row}
        self.lie = LieAlgebra(
            name or "%s |x V*" % self.g.name, self.dim, brackets
        )

    def __repr__(self):
        return "SemidirectProduct(%s, dim=%d+%d)" % (self.g.name, self.dim_g, self.dim_v)


def moment_map(q: SemidirectProduct, v: Sequence, zeta: Sequence) -> list:
    """mu(v, zeta) in g*: a |-> <zeta, a . v>."""
    out = []
    for a in range(q.dim_g):
        av = q.rep.act_basis(a, v)
        acc = 0
        for z, w in zip(zeta, av):
            if z != 0 and w != 0:
                acc = acc + z * w
        out.append(normalize_scalar(acc))
    return out


def coadjoint_unipotent(q: SemidirectProduct, zeta: Sequence, eta: DualPoint) -> DualPoint:
    """Action of the unipotent element 1 |x zeta on eta = (xi, v):
    the v part is fixed and xi picks up the moment map term."""
    mu = moment_map(q, eta.v, zeta)
    xi = [normalize_scalar(x + m) for x, m in zip(eta.xi, mu)]
    return DualPoint(xi, list(eta.v))


def kirillov_form(lie: LieAlgebra, eta_combined: Sequence) -> Matrix:
    """The skew form B(eta)_{uv} = <eta, [b_u, b_v]> on the whole algebra."""
    n = lie.dim
    m = Matrix.zeros(n, n)
    for (a, b), entry in lie.brackets.items():
        acc = 0
        for c, coeff in entry.items():
            e = eta_combined[c]
            if e != 0 and coeff != 0:
                acc = acc + coeff * e
        acc = normalize_scalar(acc)
        if acc != 0:
            m.rows[a][b] = acc
            m.rows[b][a] = -acc
    return m


def kirillov_rank(q: SemidirectProduct, eta: DualPoint) -> int:
    r = skew_rank(kirillov_form(q.lie, eta.combined()))
    if r % 2:
        raise AssertionError("Kirillov form rank must be even")
    return r


@dataclass
class IndexEstimate:
    index: int
    max_rank: int
    stabilised: bool
    # (eta, rank of the Kirillov form at eta) for every point drawn, in order
    ranks: list = field(default_factory=list, repr=False)


def index_estimate(lie: LieAlgebra, ctx: CheckContext = CheckContext()) -> IndexEstimate:
    """ind(lie) = dim - max rank of the Kirillov form over sampled points.

    Runs two disjoint batches; the estimate is flagged stabilised only when
    both batches attain the same maximal rank.  Every rank is recorded, so a
    check on the form (its rank is even) reads the same points; an odd rank
    is left for that check to report.
    """
    best = [0, 0]
    ranks = []
    for batch in range(2):
        draw = ctx.draw(lie.dim, "kirillov", "batch%d" % batch)
        for _ in range(max(1, ctx.samples // 2)):
            eta = draw()
            r = skew_rank(kirillov_form(lie, eta))
            ranks.append((eta, r))
            if r > best[batch]:
                best[batch] = r
    max_rank = max(best)
    return IndexEstimate(
        index=lie.dim - max_rank,
        max_rank=max_rank,
        stabilised=best[0] == best[1],
        ranks=ranks,
    )


def b_of(lie: LieAlgebra, ctx: CheckContext = CheckContext()) -> Fraction:
    """b(lie) = (dim + ind)/2 with the sampled index."""
    return Fraction(lie.dim + index_estimate(lie, ctx).index, 2)


@dataclass
class RaisReport:
    dim_v: int
    dim_g: int
    stab_dim: int
    stab_index: int
    stab_abelian: bool
    index_q: int
    stabilised: bool
    consistent: bool


def rais_consistency(
    q: SemidirectProduct,
    sample: Sequence[tuple[list, Subspace]],
    est: IndexEstimate,
    ctx: CheckContext = CheckContext(),
) -> RaisReport:
    """Check ind(q) = dim V - dim g + dim g_x + ind g_x at a generic x in V.

    ``sample`` holds (point, stabiliser) pairs of V, as drawn by
    ``lie.stabiliser_sample``; x is its first point of minimal stabiliser
    dimension.  The index of an abelian g_x is its dimension; that of a
    non-abelian one is sampled inside the subalgebra under ``ctx``, whose
    ``samples`` is the size of ``sample`` in a verify run.
    ``est`` is the estimate of ind q, ``index_estimate(q.lie, ctx)``.
    """
    stab = min((s for _, s in sample), key=lambda s: s.dim)
    sub = subalgebra(q.g, stab)
    stab_abelian = not sub.brackets
    # an abelian g_x has a zero Kirillov form, so ind g_x = dim g_x exactly
    stab_index = stab.dim if stab_abelian else index_estimate(sub, ctx).index
    expected = q.dim_v - q.dim_g + stab.dim + stab_index
    return RaisReport(
        dim_v=q.dim_v,
        dim_g=q.dim_g,
        stab_dim=stab.dim,
        stab_index=stab_index,
        stab_abelian=stab_abelian,
        index_q=est.index,
        stabilised=est.stabilised,
        consistent=est.index == expected,
    )
