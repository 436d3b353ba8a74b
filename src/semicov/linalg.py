"""Exact linear algebra over the rationals (and over polynomial rings).

Matrices store their entries as plain ``int``, ``fractions.Fraction``, or any
ring element supporting ``+``, ``-``, ``*`` (polynomials).  Every routine here
is exact: no floating point anywhere.  Rank and kernel computations require
scalar (rational) entries; determinants, adjugates and characteristic
polynomials also accept symbolic entries.  Rank, kernel, solve, span
coordinates and scalar determinant share one fraction-free elimination on
integer rows, and ``inverse`` is ``solve_all`` on the identity columns; a
Fraction appears only when a pivot row is finally divided by its pivot.
Rank eliminates the shorter of m and its transpose; rank and scalar det,
which need only the echelon shape, pivot on the entry of least absolute
value, while kernel, solve, span coordinates and inverse keep the first
nonzero entry and so their canonical rows.
The one other elimination, ``skew_rank``, ranks skew-symmetric matrices
(Kirillov forms): no row-echelon order can use the symmetry, while each of
its 2x2 pivot blocks removes two indices and updates only the upper
triangle, about a quarter of the element operations.  Symbolic
determinants, adjugates and ``minor_skew`` (every order, every ring) read
one memoised minor table, ``_minors``; characteristic polynomials use the
Faddeev-LeVerrier loop.  ``power`` is the one repeated-squaring loop, for
matrices, polynomials and dual numbers.  ``block_diag`` is the one
block-diagonal assembly: product algebras, catalog covariants.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def normalize_scalar(x):
    """Collapse a Fraction with denominator 1 to a plain int."""
    # type() rather than isinstance: Fraction's ABC check is slow on hot paths
    if type(x) is Fraction and x.denominator == 1:
        return int(x)
    return x


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
        return power(self, exponent, lambda: Matrix.identity(self.nrows))

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

    def trace_product(self, other: "Matrix"):
        """tr(self * other) from the entries, without forming the product."""
        if self.nrows != other.ncols or self.ncols != other.nrows:
            raise ValueError("shape mismatch in trace of product")
        acc = 0
        for row, col in zip(self.rows, zip(*other.rows)):
            for a, b in zip(row, col):
                if a != 0 and b != 0:
                    acc = acc + a * b
        return acc

    def submatrix(self, keep_rows: Sequence[int], keep_cols: Sequence[int]) -> "Matrix":
        return Matrix([[self.rows[i][j] for j in keep_cols] for i in keep_rows])

    def vec(self) -> list:
        """Row-major flattening."""
        return [a for r in self.rows for a in r]

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.rows for a in r)

    def map(self, fn) -> "Matrix":
        return Matrix([[fn(a) for a in r] for r in self.rows])

    def __repr__(self):
        return "Matrix(%r)" % (self.rows,)


def power(x, e: int, one):
    """x**e by repeated squaring, for any ring element with ``*`` (matrices,
    polynomials, dual numbers); ``one()`` builds x**0, called only for
    e = 0, and no product takes it."""
    if e < 0:
        raise ValueError("negative power %d" % e)
    result = None
    while e:
        if e & 1:
            result = x if result is None else result * x
        e >>= 1
        if e:
            x = x * x
    return one() if result is None else result


def block_diag(blocks: Sequence[Matrix | None], sizes: Sequence[int] | None = None) -> Matrix:
    """Block-diagonal matrix of ``blocks``; a None block is a zero square
    block of side ``sizes[i]``."""
    shapes = [(b.nrows, b.ncols) if b is not None else (sizes[i],) * 2 for i, b in enumerate(blocks)]
    out = Matrix.zeros(sum(r for r, _ in shapes), sum(c for _, c in shapes))
    ro = co = 0
    for b, (r, c) in zip(blocks, shapes):
        if b is not None:
            for i in range(r):
                out.rows[ro + i][co : co + c] = list(b.rows[i])
        ro += r
        co += c
    return out


def int_rows(rows):
    """Scale each row by the lcm of its denominators so all entries are ints.

    A scaled row has the same reduced echelon form.  Also returns the product
    of the scales, which a determinant divides back out.
    """
    out = []
    scale = 1
    for r in rows:
        lcm = math.lcm(*[a.denominator for a in r if type(a) is Fraction])
        out.append([a.numerator * (lcm // a.denominator) if type(a) is Fraction else a * lcm
                    for a in r])
        scale *= lcm
    return out, scale


def _eliminate(rows: list[list[int]], ncols: int, full: bool, factors=None) -> list[int]:
    """Fraction-free elimination (Bareiss 1968) of int ``rows`` in place over
    the first ``ncols`` columns; returns the pivot columns.

    The one row operation is ``r_i <- (p/g0) r_i - (x/g0) r_piv`` with
    ``g0 = gcd(p, x)``, after which the row is divided by the gcd of its
    entries (the same row as with ``p`` and ``x`` themselves).  Rows with 0 in
    the pivot column are skipped.  Forward only, rows end in echelon form and
    ``factors`` (if given) collects ``(g, p/g0)`` for each operation and
    ``(-1, 1)`` for each swap, so det(rows before) = det(rows after) * prod g
    / prod (p/g0).  With ``full``, rows above each pivot are cleared too, and
    each pivot row is then divided by its pivot: the unique reduced echelon
    form, int wherever integral.  Later columns (a right-hand side, an
    identity block) are carried along through the same row operations.

    The pivot is the first nonzero entry at or below the current row, except
    forward with nothing carried (rank, scalar det), where only the echelon
    shape counts: there it is the entry of least absolute value, the first
    among ties (a +-1 ends the scan).  Either rule is deterministic.
    """
    nrows = len(rows)
    pivots: list[int] = []
    smallest = not full and all(len(row) == ncols for row in rows)
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        if smallest:
            piv = None
            for i in range(r, nrows):
                x = rows[i][c]
                if x and (piv is None or abs(x) < least):
                    piv, least = i, abs(x)
                    if least == 1:
                        break
        else:
            piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            if factors is not None:
                factors.append((-1, 1))
        rr = rows[r]
        p = rr[c]
        for i in range(nrows) if full else range(r + 1, nrows):
            ri = rows[i]
            x = ri[c]
            if not x or i == r:
                continue
            start = pivots[i] if i < r else c
            g0 = math.gcd(p, x)
            pg, xg = p // g0, x // g0
            new = [pg * a - xg * b for a, b in zip(ri[start:], rr[start:])]
            g = math.gcd(*new)
            if g > 1:
                new = [a // g for a in new]
            ri[start:] = new
            if factors is not None:
                factors.append((g, pg))
        pivots.append(c)
    if full:
        for rr, c in zip(rows, pivots):
            p = rr[c]
            if p != 1:
                rr[c:] = [a // p if a % p == 0 else Fraction(a, p) for a in rr[c:]]
    return pivots


def rank(m: Matrix) -> int:
    """Exact rank by forward fraction-free elimination on integer rows: of
    m, or of its transpose when that has fewer rows."""
    rows = m.rows if m.nrows <= m.ncols else zip(*m.rows)
    return len(_eliminate(int_rows(rows)[0], max(m.nrows, m.ncols), False))


def skew_rank(m: Matrix) -> int:
    """Exact rank of a skew-symmetric m, eliminating 2x2 pivot blocks.

    One common lcm clears the denominators, so the integer matrix stays skew.
    The pivot row is the first index whose row is nonzero (zero rows before
    it are dropped); the pivot a = A_ij is its entry of least absolute value,
    the first among ties (a +-1 ends the scan).  i and j leave, the rank grows
    by 2, and the upper triangle of the rest becomes (a A_kl - A_kj A_il +
    A_ki A_jl) / prev: a Pfaffian, so the division by the previous pivot is
    exact (Knuth, "Overlapping Pfaffians", 1996); a remainder raises.
    """
    n, rows = m.nrows, m.rows
    if m.ncols != n or any(r != [-a for a in c] for r, c in zip(rows, zip(*rows))):
        raise ValueError("skew_rank needs a skew-symmetric matrix")
    lcm = math.lcm(*[a.denominator for r in rows for a in r if type(a) is Fraction])
    # up[p] holds the entries of row p right of the diagonal, as ints
    up = [[a.numerator * (lcm // a.denominator) if type(a) is Fraction else a * lcm
           for a in r[p + 1:]] for p, r in enumerate(rows)]
    prev, r = 1, 0
    while up:
        head = up[0]
        j = None
        for q, x in enumerate(head):
            if x and (j is None or abs(x) < least):
                j, least = q, abs(x)
                if least == 1:
                    break
        if j is None:
            del up[0]
            continue
        a = head[j]
        j += 1  # position of the pivot column in the current matrix
        # minus column 0 and minus column j (A_k0 = -A_0k), over the rest
        rest = [p for p in range(1, len(up)) if p != j]
        u = [head[p - 1] for p in rest]
        w = [-up[p][j - p - 1] if p < j else up[j][p - j - 1] for p in rest]
        new = []
        for t, p in enumerate(rest):
            row = up[p] if p > j else up[p][: j - p - 1] + up[p][j - p:]
            uk, wk = u[t], w[t]
            vals = [a * x + wk * y - uk * z for x, y, z in zip(row, u[t + 1:], w[t + 1:])]
            if prev != 1:
                if math.gcd(prev, *vals) != abs(prev):
                    raise ArithmeticError("Pfaffian elimination: inexact division")
                vals = list(map(prev.__rfloordiv__, vals))
            new.append(vals)
        up, prev, r = new, a, r + 2
    return r


def rank_and_kernel(m: Matrix) -> tuple[int, list[list]]:
    """Exact rank and a basis of the right kernel {x : m x = 0}.

    Kernel vectors come out in the canonical reduced-echelon form: one vector
    per free column, with entry 1 in that column's slot.  Deterministic.
    """
    rows = int_rows(m.rows)[0]
    pivots = _eliminate(rows, m.ncols, True)
    kernel = []
    for fc in range(m.ncols):
        if fc in pivots:
            continue
        v = [0] * m.ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = -rows[ri][fc]
        kernel.append(v)
    return len(pivots), kernel


def solve(m: Matrix, b: Sequence):
    """One exact solution of m x = b, or None if inconsistent."""
    return solve_all(m, [b])[1][0]


def solve_all(m: Matrix, rhs: Sequence[Sequence]) -> tuple[int, list]:
    """The rank of m and one exact solution of m x = b for each b of ``rhs``
    (None where inconsistent), all through one elimination."""
    ncols = m.ncols
    rows = int_rows([list(r) + [b[i] for b in rhs] for i, r in enumerate(m.rows)])[0]
    pivots = _eliminate(rows, ncols, True)
    out = []
    for t in range(ncols, ncols + len(rhs)):
        x = None
        if not any(row[t] for row in rows[len(pivots):]):
            x = [0] * ncols
            for row, pc in zip(rows, pivots):
                x[pc] = row[t]
        out.append(x)
    return len(pivots), out


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
        eye = [[int(i == j) for j in range(self.k)] for i in range(self.k)]
        rows = int_rows([v + e for v, e in zip(self.basis, eye)])[0]
        self.pivots = _eliminate(rows, self.m, True)
        if len(self.pivots) != self.k:
            raise ValueError("basis vectors are linearly dependent")
        self.transform = [row[self.m :] for row in rows]  # reduced = transform @ basis
        # Nonzeros only: column j of transform, and each basis vector off the
        # pivots.  At a pivot the residual below vanishes by construction.
        self._tcols = [
            [(i, t[j]) for i, t in enumerate(self.transform) if t[j] != 0] for j in range(self.k)
        ]
        on_pivot = set(self.pivots)
        self._free = [i for i in range(self.m) if i not in on_pivot]
        self._off_pivot = [
            [(i, b) for i, b in enumerate(v) if b != 0 and i not in on_pivot] for v in self.basis
        ]

    def coords(self, w: Sequence):
        """Coefficients of w in the basis, or None if not in the span."""
        c_red = [w[p] for p in self.pivots]
        # coefficients on the original basis: c = c_red @ transform
        out = []
        for col in self._tcols:
            acc = 0
            for i, t in col:
                acc = acc + t * c_red[i]
            out.append(acc)
        residual = list(w)
        for cj, nonzero in zip(out, self._off_pivot):
            if cj == 0:
                continue
            for i, b in nonzero:
                residual[i] = residual[i] - cj * b
        free = self._free if self.k else range(len(w))
        if not all(_ring_is_zero(residual[i]) for i in free):
            return None
        return [normalize_scalar(x) for x in out]


def _ring_is_zero(a) -> bool:
    if is_scalar(a):
        return a == 0
    z = getattr(a, "is_zero", None)
    return z() if z is not None else a == 0


def det(m: Matrix):
    """Exact determinant; fraction-free elimination for scalars, memoised
    minor expansion (``_minors``) for symbolic entries."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of non-square matrix")
    n = m.nrows
    if n == 0:
        return 1
    if not all(is_scalar(a) for r in m.rows for a in r):
        full = (1 << n) - 1
        return _minors(m)(full, full)
    rows, scale = int_rows(m.rows)
    factors: list[tuple[int, int]] = []
    if len(_eliminate(rows, n, False, factors)) < n:
        return 0
    num = math.prod(rows[i][i] for i in range(n)) * math.prod(g for g, _ in factors)
    return normalize_scalar(Fraction(num, scale * math.prod(p for _, p in factors)))


def _minors(m: Matrix):
    """``minor(rowmask, colmask)``: the determinant of the square submatrix of
    m on the rows and columns whose bits are set, expanded along its first
    row.  Memoised, so minors shared by several expansions (every cofactor of
    an adjugate) are computed once."""
    rows = m.rows
    cache: dict[tuple[int, int], object] = {}

    def minor(rowmask: int, colmask: int):
        if not rowmask:
            return 1
        key = (rowmask, colmask)
        if key in cache:
            return cache[key]
        row = rows[(rowmask & -rowmask).bit_length() - 1]
        rest = rowmask & (rowmask - 1)
        acc = 0
        sign = 1
        mask = colmask
        j = 0
        while mask:
            if mask & 1:
                a = row[j]
                if not _ring_is_zero(a):
                    sub = minor(rest, colmask & ~(1 << j))
                    term = a * sub if sign > 0 else -(a * sub)
                    acc = acc + term
                sign = -sign
            mask >>= 1
            j += 1
        cache[key] = acc
        return acc

    return minor


def char_poly(m: Matrix) -> list:
    """Coefficients of det(t I - m), highest degree first: [1, c_{n-1}, ..., c_0].

    Faddeev-LeVerrier: from M_0 = I, c_k = -tr(m M_(k-1)) / k and
    M_k = m M_(k-1) + c_k I.  Only divisions by integers occur, so this is
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
        c = normalize_scalar(AM.trace() * Fraction(-1, k))
        coeffs.append(c)
        if k < n:
            M = AM + Matrix.identity(n) * c
    return coeffs


def adjugate(m: Matrix) -> Matrix:
    """Exact adjugate: adj(m) m = det(m) I.

    Cofactor (i, j) is (-1)^(i+j) times the minor of m without row j and
    column i, all read from one memoised ``_minors``.  Entries may be
    symbolic; results are degree-(n-1) polynomials in the entries.
    """
    if m.nrows != m.ncols:
        raise ValueError("adjugate of non-square matrix")
    n = m.nrows
    full = (1 << n) - 1
    minor = _minors(m)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            cof = minor(full & ~(1 << j), full & ~(1 << i))
            cof = -cof if (i + j) % 2 else cof
            row.append(normalize_scalar(cof))
        rows.append(row)
    return Matrix(rows)


def minor_skew(m: Matrix) -> Matrix:
    """Skew matrix of signed maximal minors, indexed by deleted column pairs.

    For a k by (k+2) matrix the (i, j) entry with i < j is (-1)^(i+j) times
    the minor of m on all rows and the columns other than i and j, all read
    from one memoised ``_minors``.  Row pairs are the column pairs of
    ``m.transpose()``.
    """
    n = m.ncols
    if n != m.nrows + 2:
        raise ValueError("minor_skew needs a k x (k+2) matrix")
    rowmask, full = (1 << m.nrows) - 1, (1 << n) - 1
    minor = _minors(m)
    out = Matrix.zeros(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            val = minor(rowmask, full & ~(1 << i) & ~(1 << j))
            val = -val if (i + j) % 2 else val
            val = normalize_scalar(val)
            out.rows[i][j] = val
            out.rows[j][i] = -val
    return out


def inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix with scalar entries: ``solve_all``
    on the columns of the identity.

    Raises ValueError on singular or symbolic input.
    """
    if m.nrows != m.ncols:
        raise ValueError("inverse of non-square matrix")
    if not all(is_scalar(a) for r in m.rows for a in r):
        raise ValueError("inverse needs scalar entries")
    r, cols = solve_all(m, Matrix.identity(m.nrows).rows)
    if r < m.nrows:
        raise ValueError("matrix is singular")
    return Matrix.from_cols(cols)
