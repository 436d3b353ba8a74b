"""Shared builders for catalog constructions.

Everything here turns a matrix-level description of a module or a covariant
into the coordinate form the core library works with: modules become action
matrices on a fixed coordinate basis, covariants become matrix formulas over
that coordinate ring.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from ..lie import LieAlgebra, Representation, action_matrix_at
from ..linalg import Matrix, det, rank
from ..sampling import derive_rng, rand_vector

__all__ = [
    "module_from_fields",
    "quotient_dim_estimate",
    "MatrixPairModule",
    "SymSkewPairModule",
    "unvec",
    "embed_blocks",
    "traceless_part",
    "minor_skew_by_columns",
    "minor_skew_by_rows",
    "SYM",
    "SKEW",
]

SYM = "sym"
SKEW = "skew"


def module_from_fields(
    algebra: LieAlgebra,
    dim_v: int,
    act_vec: Callable[[int, int], Sequence],
    label: str = "",
) -> Representation:
    """Representation from the action fields on coordinate vectors.

    ``act_vec(a, j)`` is the image of the j-th coordinate vector under the
    a-th basis element, as a length ``dim_v`` vector.
    """
    mats = []
    for a in range(algebra.dim):
        cols = [act_vec(a, j) for j in range(dim_v)]
        mats.append(Matrix.from_cols(cols))
    return Representation(algebra, mats, label=label)


def unvec(entries: Sequence, nrows: int, ncols: int) -> Matrix:
    """Row-major inverse of Matrix.vec()."""
    return Matrix([[entries[i * ncols + j] for j in range(ncols)] for i in range(nrows)])


def embed_blocks(prod_alg: LieAlgebra, mats: Sequence[Matrix | None]) -> Matrix:
    """Block-diagonal embedding into a product algebra's matrix realisation.

    ``mats[i]`` sits at factor i's diagonal block; None means a zero block.
    """
    total = prod_alg.matrix_size
    out = Matrix.zeros(total, total)
    for f, m in zip(prod_alg.factors, mats):
        if m is None:
            continue
        for i in range(m.nrows):
            for j in range(m.ncols):
                out.rows[f.block_offset + i][f.block_offset + j] = m.rows[i][j]
    return out


def traceless_part(m: Matrix) -> Matrix:
    """m minus its trace times the normalised identity."""
    n = m.nrows
    return m - Matrix.identity(n) * (m.trace() * Fraction(1, n))


# -- matrix-space modules ---------------------------------------------------


class MatrixPairModule:
    """Module of tuples of matrices with a left/right multiplication action.

    Coordinates are the concatenated row-major entries of the matrices.  The
    action of a basis element is described per matrix slot by ``fields``: a
    callable (s, mats) -> list of image matrices, where s is the acting basis
    matrix of the algebra.
    """

    def __init__(
        self,
        algebra: LieAlgebra,
        shapes: Sequence[tuple[int, int]],
        fields: Callable[[Matrix, list[Matrix]], list[Matrix]],
        label: str = "",
    ):
        self.algebra = algebra
        self.shapes = list(shapes)
        self.fields = fields
        self.dim_v = sum(r * c for r, c in self.shapes)
        self.rep = module_from_fields(algebra, self.dim_v, self._act_vec, label=label)

    def decode(self, coords: Sequence) -> list[Matrix]:
        out = []
        pos = 0
        for r, c in self.shapes:
            out.append(unvec(list(coords[pos : pos + r * c]), r, c))
            pos += r * c
        return out

    def encode(self, mats: Sequence[Matrix]) -> list:
        out: list = []
        for m in mats:
            out.extend(m.vec())
        return out

    def _act_vec(self, a: int, j: int) -> list:
        base = [0] * self.dim_v
        base[j] = 1
        images = self.fields(self.algebra.basis[a], self.decode(base))
        return self.encode(images)


class SymSkewPairModule:
    """Pairs (A, B) with A symmetric and B skew-symmetric, n by n.

    Coordinates are the independent entries: the upper triangle of A
    including the diagonal, then the strict upper triangle of B.  ``fields``
    maps (s, A, B) to the image pair, which must again be (sym, skew).
    """

    def __init__(
        self,
        algebra: LieAlgebra,
        n: int,
        fields: Callable[[Matrix, Matrix, Matrix], tuple[Matrix, Matrix]],
        label: str = "",
    ):
        self.algebra = algebra
        self.n = n
        self.fields = fields
        self.sym_positions = [(r, c) for r in range(n) for c in range(r, n)]
        self.skew_positions = [(r, c) for r in range(n) for c in range(r + 1, n)]
        self.dim_v = len(self.sym_positions) + len(self.skew_positions)
        self.rep = module_from_fields(algebra, self.dim_v, self._act_vec, label=label)

    def decode(self, coords: Sequence) -> tuple[Matrix, Matrix]:
        n = self.n
        A = Matrix.zeros(n, n)
        B = Matrix.zeros(n, n)
        for t, (r, c) in enumerate(self.sym_positions):
            A.rows[r][c] = coords[t]
            A.rows[c][r] = coords[t]
        off = len(self.sym_positions)
        for t, (r, c) in enumerate(self.skew_positions):
            B.rows[r][c] = coords[off + t]
            B.rows[c][r] = -coords[off + t]
        return A, B

    def encode(self, A: Matrix, B: Matrix) -> list:
        out = [A.rows[r][c] for r, c in self.sym_positions]
        out.extend(B.rows[r][c] for r, c in self.skew_positions)
        return out

    def _act_vec(self, a: int, j: int) -> list:
        base = [0] * self.dim_v
        base[j] = 1
        A, B = self.decode(base)
        iA, iB = self.fields(self.algebra.basis[a], A, B)
        return self.encode(iA, iB)


# -- minor covariants --------------------------------------------------------


def _signed_complementary_minor(m: Matrix, i: int, j: int, by_rows: bool) -> object:
    d = m.delete_rows([i, j]) if by_rows else m.delete_cols([i, j])
    val = det(d)
    return -val if (i + j) % 2 else val


def minor_skew_by_columns(m: Matrix) -> Matrix:
    """Skew matrix of signed maximal minors, indexed by deleted column pairs.

    For a 2k by (2k+2) matrix the (i, j) entry with i < j is
    (-1)^(i+j) det(m with columns i and j removed).
    """
    n = m.ncols
    out = Matrix.zeros(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            val = _signed_complementary_minor(m, i, j, by_rows=False)
            out.rows[i][j] = val
            out.rows[j][i] = -val
    return out


def minor_skew_by_rows(m: Matrix) -> Matrix:
    """Skew matrix of signed maximal minors, indexed by deleted row pairs."""
    n = m.nrows
    out = Matrix.zeros(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            val = _signed_complementary_minor(m, i, j, by_rows=True)
            out.rows[i][j] = val
            out.rows[j][i] = -val
    return out


def quotient_dim_estimate(
    rep: Representation, seed: int = 0, samples: int = 20, bound: int = 10
) -> int:
    """dim V minus the maximal sampled orbit-map rank: the quotient dimension
    as seen by the action at random integer points."""
    rng = derive_rng(seed, "quotient", rep.label or "V")
    best = 0
    for _ in range(samples):
        v = rand_vector(rng, rep.dim_v, bound)
        r = rank(action_matrix_at(rep, v))
        if r > best:
            best = r
    return rep.dim_v - best
