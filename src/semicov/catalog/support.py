"""Shared builders for catalog constructions.

Every module of the catalog is a tuple of matrix slots acted on by
multiplication.  ``MatrixPairModule`` reads rho off one call of the action,
bilinear in the acting matrix and the slots, on S = sum_a y_a e_a and the
slots of the coordinate variables x: rho_a[i, j] is the coefficient of y_a
x_j in image entry i.  Covariants are matrix formulas in x.  A slot is one of

* ``(rows, cols)``: a full matrix, coordinates its row-major entries;
* ``(SYM, n)``: a symmetric n x n matrix, coordinates the upper triangle
  with the diagonal, row by row;
* ``(SKEW, n)``: a skew n x n matrix, coordinates the strict upper
  triangle, row by row.

The coordinates of V are those of the slots, concatenated in slot order.
``quotient_dim_estimate``, the table rows' estimator, reads the generic
stabiliser from ``lie.stabiliser_sample``, the one sampler the entries use.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from ..lie import LieAlgebra, Representation, stabiliser_sample
from ..linalg import Matrix, nonzeros
from ..linalg import rank  # noqa: F401 (re-export; the benchmark's tracer patches it)
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
    ``fields``: a callable (s, mats) -> list of image matrices, bilinear in
    s, an element of the algebra as a matrix, and the slots; each image lies
    again in its slot's kind.  One call, in the ring of y and x, gives rho
    (module docstring); a term other than c y_a x_j raises ValueError.
    ``decode`` and ``encode`` convert between coordinates, in any ring, and
    the slot matrices.
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
        dg, n = algebra.dim, algebra.dim + self.dim_v
        s = Matrix.zeros(algebra.matrix_size, algebra.matrix_size)  # S = sum_a y_a e_a
        for m, y in zip(algebra.basis, MultiPoly.variables(n)):
            for i, r in enumerate(m.rows):
                for k, x in nonzeros(r):
                    s.rows[i][k] = s.rows[i][k] + y * x
        rows: list = [[] for _ in range(dg)]  # rho_a's nonzero rows, i ascending
        for i, e in enumerate(self.encode(fields(s, self.decode(MultiPoly.variables(n)[dg:])))):
            for a, j, c in (MultiPoly.zero(n) + e).bilinear_terms(dg):  # a scalar e as a polynomial
                if not rows[a] or rows[a][-1][0] != i:
                    rows[a].append((i, []))
                rows[a][-1][1].append((j, c))
        self.rep = Representation(algebra, rows, self.dim_v, label=label)

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


def quotient_dim_estimate(rep: Representation, ctx: CheckContext = CheckContext()) -> int:
    """dim V minus the maximal orbit-map rank over ``ctx.samples`` random
    integer points: the quotient dimension as seen by the action.  The orbit
    rank at v is dim g - dim g_v, so this reads the least stabiliser
    dimension of ``lie.stabiliser_sample`` on the ``("quotient", label)``
    stream, proved at the first point or else taken over the whole stream.
    """
    sample = stabiliser_sample(rep, ctx, "quotient", rep.label or "V")
    return rep.dim_v - rep.algebra.dim + sample.minimal[0][1].dim
