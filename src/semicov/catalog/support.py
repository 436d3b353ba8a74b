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
``quotient_dim_estimate``, the table rows' estimator, reads the generic
stabiliser from ``lie.stabiliser_sample``, the one sampler the entries use.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from ..lie import LieAlgebra, Representation, stabiliser_sample
from ..linalg import Matrix
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
    integer points: the quotient dimension as seen by the action.  The orbit
    rank at v is dim g - dim g_v, so this reads the least stabiliser
    dimension of ``lie.stabiliser_sample`` on the ``("quotient", label)``
    stream, proved at the first point or else taken over the whole stream.
    """
    sample = stabiliser_sample(rep, ctx, "quotient", rep.label or "V")
    return rep.dim_v - rep.algebra.dim + sample.minimal[0][1].dim
