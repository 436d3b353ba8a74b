"""Shared builders for catalog constructions.

Every module of the catalog is a tuple of matrix slots acted on by
multiplication.  ``MatrixPairModule`` lays out the slots' coordinates and
reads the action entries off one call of the (linear) matrix-level action
per basis element, on the slots of the coordinate variables; covariants
become matrix formulas over the same coordinate ring.  A slot is one of

* ``(rows, cols)``: a full matrix, coordinates its row-major entries;
* ``(SYM, n)``: a symmetric n x n matrix, coordinates the upper triangle
  with the diagonal, row by row;
* ``(SKEW, n)``: a skew n x n matrix, coordinates the strict upper
  triangle, row by row.

The coordinates of V are those of the slots, concatenated in slot order.
``quotient_dim_estimate``, the table rows' estimator, proves its sampled
maximum on the fixed-point slice of its first point.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from ..lie import LieAlgebra, Representation, action_matrix_at
from ..linalg import Matrix, int_rows, rank, rank_and_kernel, rank_mod_p
from ..poly import CheckContext, MultiPoly

__all__ = [
    "quotient_dim_estimate",
    "MatrixPairModule",
    "diag_block",
    "left_right_fields",
    "traceless_part",
    "SYM",
    "SKEW",
]

SYM = "sym"
SKEW = "skew"


def traceless_part(m: Matrix) -> Matrix:
    """m minus its trace times the normalised identity."""
    n = m.nrows
    return m - Matrix.identity(n) * (m.trace() * Fraction(1, n))


def diag_block(s: Matrix, offset: int, size: int) -> Matrix:
    """The size x size diagonal block of s starting at row and column offset."""
    return Matrix([row[offset : offset + size] for row in s.rows[offset : offset + size]])


def left_right_fields(galg: LieAlgebra) -> Callable[[Matrix, list[Matrix]], list[Matrix]]:
    """Slot action ``M -> L M - M R``, with L and R the blocks of the first
    two factors of the product ``galg`` in the acting basis matrix."""
    f0, f1 = galg.factors[:2]
    n0, n1 = f0.algebra.matrix_size, f1.algebra.matrix_size

    def fields(s: Matrix, mats: list[Matrix]) -> list[Matrix]:
        L = diag_block(s, f0.block_offset, n0)
        R = diag_block(s, f1.block_offset, n1)
        return [L * M - M * R for M in mats]

    return fields


# -- matrix-space modules ---------------------------------------------------


def _slot(shape) -> tuple[int, int, int, list[tuple[int, int]]]:
    """(rows, cols, mirror sign, coordinate cells) of a slot; the sign is
    +1 or -1 for the lower triangle of a SYM or SKEW slot, 0 for none."""
    kind, n = shape
    if kind in (SYM, SKEW):
        skew = kind == SKEW
        return n, n, -1 if skew else 1, [(i, j) for i in range(n) for j in range(i + skew, n)]
    return kind, n, 0, [(i, j) for i in range(kind) for j in range(n)]


class MatrixPairModule:
    """Module of a tuple of matrix slots (module docstring) acted on by
    ``fields``: a callable (s, mats) -> list of image matrices, where s is the
    acting basis matrix of the algebra.  Each image must again lie in its
    slot's kind, and be linear in the slots.  ``decode`` and ``encode``
    convert between coordinates, in any ring, and the slot matrices.

    One call per basis element on the slots of the variables x gives rho:
    image entry i is sum_j rho[i, j] x_j; one not linear in x raises ValueError.
    """

    def __init__(
        self,
        algebra: LieAlgebra,
        shapes: Sequence[tuple],
        fields: Callable[[Matrix, list[Matrix]], list[Matrix]],
        label: str = "",
    ):
        self._slots = [_slot(shape) for shape in shapes]
        self.dim_v = sum(len(cells) for *_, cells in self._slots)
        slots = self.decode(MultiPoly.variables(self.dim_v))
        cells = [
            [(i, j, c) for i, e in enumerate(self.encode(fields(s, slots))) for j, c in _linear_terms(e)]
            for s in algebra.basis
        ]
        self.rep = Representation(algebra, cells=cells, dim_v=self.dim_v, label=label)

    def decode(self, coords: Sequence) -> list[Matrix]:
        out = []
        pos = 0
        for nrows, ncols, sign, cells in self._slots:
            m = Matrix.zeros(nrows, ncols)
            for (i, j), x in zip(cells, coords[pos : pos + len(cells)]):
                m.rows[i][j] = x
                if sign:
                    m.rows[j][i] = x if sign > 0 else -x
            out.append(m)
            pos += len(cells)
        return out

    def encode(self, mats: Sequence[Matrix]) -> list:
        return [m.rows[i][j] for m, (*_, cells) in zip(mats, self._slots) for i, j in cells]


def _linear_terms(e) -> list:
    """(j, c) for the terms c x_j of an image entry: 0, or linear in x."""
    if isinstance(e, MultiPoly) and e.is_homogeneous(1):
        return [(t.index(1), c) for t, c in e.terms.items()]
    if e == 0:
        return []
    raise ValueError("fields must be linear in the slots; got image entry %s" % e)


def quotient_dim_estimate(rep: Representation, ctx: CheckContext = CheckContext()) -> int:
    """dim V minus the maximal orbit-map rank over ``ctx.samples`` random
    integer points: the quotient dimension as seen by the action.  The
    orbit map at v is ranked by its rows x_a.v, one per basis element.

    The maximum is proved after the first point v1.  One exact kernel gives
    its rank r1 and stabiliser t, and no point ranks above r1 when r1 is
    min(dim g, dim V) or ``_fixed_slice_is_dense``.  Otherwise the other
    points of the stream are ranked too, so the result is the same integer.
    """
    dg, dv, label = rep.algebra.dim, rep.dim_v, rep.label or "V"
    draw = ctx.draw(dv, "quotient", label)
    best, t = rank_and_kernel(action_matrix_at(rep, draw()))
    if ctx.samples > 1 and best < min(dg, dv) and not _fixed_slice_is_dense(rep, t, ctx, label):
        points = (draw() for _ in range(ctx.samples - 1))
        best = max([best] + [rank(Matrix([rep.act_basis(a, v) for a in range(dg)])) for v in points])
    return dv - best


def _fixed_slice_is_dense(rep: Representation, t: list, ctx: CheckContext, label: str) -> bool:
    """True when G.S is proved dense in V for S = V^t, so that dim g_v >=
    dim t on all of V.  Every s in S has g_s containing t, so the closed
    G-stable set {v : dim g_v >= dim t} holds G.S.  G.S is dense if
    G x S -> V has an onto differential at one point s (Luna-Richardson,
    Duke Math. J. 46 (1979) 487-496): rank [x_a.s ; basis of S] = dim V,
    proved by ``rank_mod_p`` at s drawn from its own "slice" stream.
    Premise: rho is the differential of a connected algebraic group acting
    on V, as for every catalog module (tensor constructions on the defining
    modules of products of gl, sl, so and sp).
    """
    dv = rep.dim_v
    fixed = [[0] * dv for _ in range(len(t) * dv)]  # rho(x), x in t, stacked
    for k, x in enumerate(int_rows(t)[0]):
        for a, xa in enumerate(x):
            for i, j, m in rep.cells(a) if xa else ():
                fixed[k * dv + i][j] += xa * m
    basis = int_rows(rank_and_kernel(Matrix(fixed))[1])[0]
    c = ctx.draw(len(basis), "quotient", label, "slice")()
    s = [sum(ci * b[j] for ci, b in zip(c, basis)) for j in range(dv)]
    return rank_mod_p(Matrix([rep.act_basis(a, s) for a in range(rep.algebra.dim)] + basis)) == dv
