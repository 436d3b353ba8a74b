"""Exact linear algebra over the rationals (and over polynomial rings).

Matrices store their entries as plain ``int``, ``fractions.Fraction``, or any
ring element supporting ``+``, ``-``, ``*`` (polynomials).  Every routine here
is exact: no floating point anywhere.  Rank and kernel computations require
scalar (rational) entries; determinants, adjugates and characteristic
polynomials also accept symbolic entries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def normalize_scalar(x):
    """Collapse a Fraction with denominator 1 to a plain int."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def is_scalar(x) -> bool:
    return isinstance(x, (int, Fraction))


class Matrix:
    """Dense matrix with exact entries, immutable by convention."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Matrix":
        return Matrix([[0] * ncols for _ in range(nrows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(diag: Sequence) -> "Matrix":
        n = len(diag)
        m = Matrix.zeros(n, n)
        for i, d in enumerate(diag):
            m.rows[i][i] = d
        return m

    @staticmethod
    def from_cols(cols: Sequence[Sequence]) -> "Matrix":
        if not cols:
            return Matrix.zeros(0, 0)
        n = len(cols[0])
        return Matrix([[col[i] for col in cols] for i in range(n)])

    @staticmethod
    def unit(nrows: int, ncols: int, i: int, j: int) -> "Matrix":
        m = Matrix.zeros(nrows, ncols)
        m.rows[i][j] = 1
        return m

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def col(self, j: int) -> list:
        return [r[j] for r in self.rows]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._shape_match(other)
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._shape_match(other)
        return Matrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in r] for r in self.rows])

    def _shape_match(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in product")
            ocols = list(zip(*other.rows)) if other.rows else []
            out = []
            for r in self.rows:
                row = []
                for c in ocols:
                    acc = 0
                    for a, b in zip(r, c):
                        if a == 0 or b == 0:
                            continue
                        acc = acc + a * b
                    row.append(acc)
                out.append(row)
            return Matrix(out)
        return Matrix([[a * other for a in r] for r in self.rows])

    def __rmul__(self, other):
        return Matrix([[other * a for a in r] for r in self.rows])

    def __pow__(self, exponent: int) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("power of non-square matrix")
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("matrix power needs a non-negative integer")
        if exponent == 0:
            return Matrix.identity(self.nrows)
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def apply(self, vec: Sequence) -> list:
        """Matrix-vector product."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        out = []
        for r in self.rows:
            acc = 0
            for a, b in zip(r, vec):
                if a == 0 or b == 0:
                    continue
                acc = acc + a * b
            out.append(acc)
        return out

    def transpose(self) -> "Matrix":
        return Matrix([list(c) for c in zip(*self.rows)]) if self.rows else Matrix([])

    def trace(self):
        if self.nrows != self.ncols:
            raise ValueError("trace of non-square matrix")
        acc = 0
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def submatrix(self, keep_rows: Sequence[int], keep_cols: Sequence[int]) -> "Matrix":
        return Matrix([[self.rows[i][j] for j in keep_cols] for i in keep_rows])

    def delete_rows(self, drop: Sequence[int]) -> "Matrix":
        keep = [i for i in range(self.nrows) if i not in set(drop)]
        return self.submatrix(keep, range(self.ncols))

    def delete_cols(self, drop: Sequence[int]) -> "Matrix":
        keep = [j for j in range(self.ncols) if j not in set(drop)]
        return self.submatrix(range(self.nrows), keep)

    def kron(self, other: "Matrix") -> "Matrix":
        out = Matrix.zeros(self.nrows * other.nrows, self.ncols * other.ncols)
        for i in range(self.nrows):
            for j in range(self.ncols):
                a = self.rows[i][j]
                if a == 0:
                    continue
                for k in range(other.nrows):
                    orow = other.rows[k]
                    trow = out.rows[i * other.nrows + k]
                    for l in range(other.ncols):
                        if orow[l] != 0:
                            trow[j * other.ncols + l] = a * orow[l]
        return out

    def vec(self) -> list:
        """Row-major flattening."""
        return [a for r in self.rows for a in r]

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.rows for a in r)

    def map(self, fn) -> "Matrix":
        return Matrix([[fn(a) for a in r] for r in self.rows])

    def __repr__(self):
        return "Matrix(%r)" % (self.rows,)


def block_diag(blocks: Sequence[Matrix]) -> Matrix:
    n = sum(b.nrows for b in blocks)
    m = sum(b.ncols for b in blocks)
    out = Matrix.zeros(n, m)
    ro = co = 0
    for b in blocks:
        for i in range(b.nrows):
            out.rows[ro + i][co : co + b.ncols] = list(b.rows[i])
        ro += b.nrows
        co += b.ncols
    return out


def _int_rows(rows):
    """Scale rows by denominator lcms so all entries are ints (rank-safe)."""
    out = []
    for r in rows:
        lcm = 1
        for a in r:
            if isinstance(a, Fraction):
                d = a.denominator
                if d != 1:
                    g = _gcd(lcm, d)
                    lcm = lcm // g * d
        if lcm == 1:
            out.append([int(a) if isinstance(a, Fraction) else a for a in r])
        else:
            out.append([int(a * lcm) for a in r])
    return out


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _rref(rows: list[list], ncols: int) -> list[int]:
    """Reduce ``rows`` in place to reduced row-echelon form over the first
    ``ncols`` columns and return the pivot columns.

    Later columns (a right-hand side, an identity block) are carried along
    through the same row operations.  Pivots are the first nonzero entry
    below the current row, so the result is deterministic.
    """
    nrows = len(rows)
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        if p != 1:
            inv = Fraction(1, 1) / as_fraction(p)
            rows[r] = [normalize_scalar(a * inv) for a in rows[r]]
        rr = rows[r]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f != 0:
                rows[i] = [normalize_scalar(a - f * b) for a, b in zip(rows[i], rr)]
        pivots.append(c)
    return pivots


# Bareiss stays separate from _rref: fraction-free integer rows avoid the gcd
# work of Fraction reduction, and rank is the hottest elimination (2.07 s of
# a 2.72 s traced small-sweep pass in bench/baseline/seed-commit.json).
def rank(m: Matrix) -> int:
    """Exact rank via fraction-free (Bareiss) elimination on integer rows."""
    rows = _int_rows(m.rows)
    nrows, ncols = len(rows), m.ncols
    r = 0
    prev = 1
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        for i in range(r + 1, nrows):
            xi = rows[i][c]
            ri, rr = rows[i], rows[r]
            rows[i] = [(p * ri[j] - xi * rr[j]) // prev for j in range(ncols)]
        prev = p
        r += 1
        if r == nrows:
            break
    return r


def rank_and_kernel(m: Matrix) -> tuple[int, list[list]]:
    """Exact rank and a basis of the right kernel {x : m x = 0}.

    Kernel vectors come out in the canonical reduced-echelon form: one vector
    per free column, with entry 1 in that column's slot.  Deterministic.
    """
    rows = [list(r) for r in m.rows]
    pivots = _rref(rows, m.ncols)
    kernel = []
    for fc in range(m.ncols):
        if fc in pivots:
            continue
        v = [0] * m.ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = normalize_scalar(-rows[ri][fc])
        kernel.append(v)
    return len(pivots), kernel


def solve(m: Matrix, b: Sequence):
    """One exact solution of m x = b, or None if inconsistent."""
    ncols = m.ncols
    rows = [list(r) + [bv] for r, bv in zip(m.rows, b)]
    pivots = _rref(rows, ncols)
    if any(row[ncols] != 0 for row in rows[len(pivots):]):
        return None
    x = [0] * ncols
    for ri, pc in enumerate(pivots):
        x[pc] = rows[ri][ncols]
    return x


class SpanSolver:
    """Exact coordinates with respect to a fixed list of independent vectors.

    Precomputes a row-reduction of the basis so repeated coordinate queries
    are cheap.  ``coords(w)`` returns the coefficient list c with
    w = sum c_i basis_i, or None when w is outside the span.  The target
    vector may have polynomial entries; the elimination coefficients are
    rational, so linear combinations stay exact.
    """

    def __init__(self, basis_vectors: Sequence[Sequence]):
        self.basis = [list(v) for v in basis_vectors]
        self.k = len(self.basis)
        self.m = len(self.basis[0]) if self.basis else 0
        rows = [v + [1 if i == j else 0 for j in range(self.k)] for i, v in enumerate(self.basis)]
        self.pivots = _rref(rows, self.m)
        if len(self.pivots) != self.k:
            raise ValueError("basis vectors are linearly dependent")
        self.transform = [row[self.m :] for row in rows]  # reduced = transform @ basis

    def coords(self, w: Sequence, check: bool = True):
        """Coefficients of w in the basis, or None if not in the span."""
        c_red = [w[p] for p in self.pivots]
        # coefficients on the original basis: c = c_red @ transform
        out = []
        for j in range(self.k):
            acc = 0
            for i in range(self.k):
                t = self.transform[i][j]
                if t != 0:
                    acc = acc + t * c_red[i]
            out.append(acc)
        if check:
            residual = list(w)
            for j, cj in enumerate(out):
                if cj == 0:
                    continue
                bj = self.basis[j]
                residual = [a - cj * b for a, b in zip(residual, bj)]
            for a in residual:
                if not _ring_is_zero(a):
                    return None
        return [normalize_scalar(x) if is_scalar(x) else x for x in out]


def _ring_is_zero(a) -> bool:
    if is_scalar(a):
        return a == 0
    z = getattr(a, "is_zero", None)
    if z is not None:
        return z() if callable(z) else bool(z)
    return a == 0


def det(m: Matrix):
    """Exact determinant; Gaussian elimination for scalars, minor expansion
    with memoisation for symbolic entries."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of non-square matrix")
    n = m.nrows
    if n == 0:
        return 1
    if all(is_scalar(a) for r in m.rows for a in r):
        return _det_scalar(m)
    return _det_symbolic(m)


def _det_scalar(m: Matrix):
    n = m.nrows
    rows = [list(r) for r in m.rows]
    sign = 1
    acc = Fraction(1)
    for c in range(n):
        piv = None
        for i in range(c, n):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        p = rows[c][c]
        acc *= as_fraction(p)
        inv = Fraction(1, 1) / as_fraction(p)
        for i in range(c + 1, n):
            f = rows[i][c]
            if f != 0:
                f = f * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return normalize_scalar(sign * acc)


def _det_symbolic(m: Matrix):
    n = m.nrows
    rows = m.rows
    cache: dict[tuple[int, int], object] = {}

    def minor(row: int, colmask: int):
        # determinant of rows[row:], columns given by colmask bits
        if row == n:
            return 1
        key = (row, colmask)
        got = cache.get(key)
        if got is not None:
            return got
        acc = 0
        sign = 1
        mask = colmask
        j = 0
        while mask:
            if mask & 1:
                a = rows[row][j]
                if not _ring_is_zero(a):
                    sub = minor(row + 1, colmask & ~(1 << j))
                    term = a * sub if sign > 0 else -(a * sub)
                    acc = acc + term
                sign = -sign
            mask >>= 1
            j += 1
        cache[key] = acc
        return acc

    return minor(0, (1 << n) - 1)


def char_poly(m: Matrix) -> list:
    """Coefficients of det(t I - m), highest degree first: [1, c_{n-1}, ..., c_0].

    Faddeev-LeVerrier recursion; only divisions by integers occur, so this is
    exact over the rationals and over polynomial rings with rational
    coefficients.
    """
    if m.nrows != m.ncols:
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.nrows
    coeffs = [1]
    M = Matrix.identity(n)
    for k in range(1, n + 1):
        AM = m * M
        t = AM.trace()
        c = t * Fraction(-1, k)
        c = normalize_scalar(c) if is_scalar(c) else c
        coeffs.append(c)
        if k < n:
            M = AM + Matrix.identity(n) * c
    return coeffs


def adjugate(m: Matrix) -> Matrix:
    """Exact adjugate: adj(m) m = det(m) I.

    Cofactor expansion for orders up to 4, Faddeev-LeVerrier above.  Entries
    may be symbolic; results are degree-(n-1) polynomials in the entries.
    """
    if m.nrows != m.ncols:
        raise ValueError("adjugate of non-square matrix")
    n = m.nrows
    if n == 0:
        return Matrix([])
    if n == 1:
        return Matrix([[1]])
    if n <= 4:
        rows = []
        idx = list(range(n))
        for i in range(n):
            row = []
            for j in range(n):
                sub = m.submatrix([r for r in idx if r != j], [c for c in idx if c != i])
                cof = det(sub)
                if (i + j) % 2:
                    cof = -cof
                row.append(cof)
            rows.append(row)
        return Matrix(rows)
    M = Matrix.identity(n)
    for k in range(1, n):
        AM = m * M
        t = AM.trace()
        c = t * Fraction(-1, k)
        c = normalize_scalar(c) if is_scalar(c) else c
        M = AM + Matrix.identity(n) * c
    if (n - 1) % 2:
        M = -M
    return M


def inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix with scalar entries.

    Raises ValueError on singular or symbolic input.
    """
    if m.nrows != m.ncols:
        raise ValueError("inverse of non-square matrix")
    if not all(is_scalar(a) for r in m.rows for a in r):
        raise ValueError("inverse needs scalar entries")
    n = m.nrows
    rows = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(m.rows)]
    if len(_rref(rows, n)) < n:
        raise ValueError("matrix is singular")
    return Matrix([row[n:] for row in rows])
