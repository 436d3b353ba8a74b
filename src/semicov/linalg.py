"""Exact linear algebra over the rationals (and over polynomial rings).

Entries are ``int``, ``fractions.Fraction`` or any ring element with ``+``,
``-``, ``*`` (polynomials); no floating point anywhere.  Rank, kernel,
solve, span coordinates, ``inverse`` (``solve_all`` on the identity) and
scalar det share one fraction-free elimination of integer rows,
``_eliminate``.  Rank eliminates a short tall m's transpose, else m.  With
nothing carried (rank, det, kernel) the pivot is the entry of least |x|;
solve, span coordinates and inverse keep the first nonzero entry, reduce
fully and divide by the pivot only at the end.  The kernel reduces forward
only and solves each basis vector by fraction-free back-substitution.
``skew_rank`` ranks skew-symmetric matrices (Kirillov forms) by 2x2 pivot
blocks on the upper triangle above their zero V* block, Pfaffian divisions
exact in any pivot order.  Symbolic det, ``adjugate`` and ``minor_skew``
read one memoised minor table, ``_minors``; ``char_poly`` is
Faddeev-LeVerrier.  ``product_rank_mod_p`` ranks L R modulo a word-size
prime on packed rows, a lower bound on the rank over Q.  ``power`` is the
one repeated-squaring loop and ``block_diag`` the one block-diagonal
assembly.  A matrix product scans each column for its nonzeros once
(``nonzeros``); ``sparse_dot`` adds r_i c_i over them in ascending i, so a
polynomial entry keeps its term order.  ``int_rows`` copies a row with no
Fraction as it is.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Iterable, Sequence


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
            cols = [nonzeros(c) for c in zip(*other.rows)]
            out = Matrix.__new__(Matrix)
            out.rows = [[sparse_dot(r, nz) for nz in cols] for r in self.rows]
            out.nrows, out.ncols = self.nrows, len(cols) if self.rows else 0
            return out
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
        nz = nonzeros(vec)
        return [sparse_dot(r, nz) for r in self.rows]

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
        return sum(sparse_dot(row, nonzeros(col)) for row, col in zip(self.rows, zip(*other.rows)))

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


def nonzeros(c: Sequence) -> list:
    """The (i, c_i) with c_i nonzero, ascending i: a column scanned once."""
    return [(i, b) for i, b in enumerate(c) if b != 0]


def sparse_dot(r: Sequence, nz: Iterable):
    """sum r_i c_i over the pairs (i, c_i) of nz with r_i nonzero, in their
    order; int 0 if there are none.  The sum starts at the first product,
    equal in value and type to int 0 plus it in every ring used here (int,
    Fraction, MultiPoly, dual numbers)."""
    acc = None
    for i, b in nz:
        a = r[i]
        if a != 0:
            acc = a * b if acc is None else acc + a * b
    return 0 if acc is None else acc


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
    """Scale each row by the lcm of its denominators so all entries are ints;
    a row with no Fraction is copied as it is.

    A scaled row has the same reduced echelon form.  Also returns the product
    of the scales, which a determinant divides back out.
    """
    out = []
    scale = 1
    for r in rows:
        if Fraction not in map(type, r):
            out.append(list(r))
            continue
        lcm = math.lcm(*[a.denominator for a in r if type(a) is Fraction])
        out.append([a.numerator * (lcm // a.denominator) if type(a) is Fraction else a * lcm
                    for a in r])
        scale *= lcm
    return out, scale


def _eliminate(rows: list[list[int]], ncols: int, full: bool, factors=None) -> list[int]:
    """Fraction-free elimination (Bareiss 1968) of int ``rows`` in place over
    the first ``ncols`` columns; returns the pivot columns.

    The one row operation is ``r_i <- (p/g0) r_i - (x/g0) r_piv``,
    ``g0 = gcd(p, x)``, then the row is divided by the gcd of its entries.
    Forward only, rows end in echelon form and ``factors`` (if given)
    collects ``(g, p/g0)`` for each operation and ``(-1, 1)`` for each swap,
    so det(rows before) = det(rows after) * prod g / prod (p/g0).  ``full``
    serves the callers that carry a block (a right-hand side or identity,
    through the same operations): ``solve_all``, so ``inverse``, and
    ``SpanSolver``.  It clears the rows above each pivot too and divides each
    pivot row by its pivot: the unique reduced form, int wherever integral.

    The pivot is the first nonzero entry at or below the current row, except
    where rows have only ``ncols`` entries (rank, scalar det, the forward
    pass of ``rank_and_kernel``): there it is the entry of least absolute
    value, the first among ties (a +-1 ends the scan).
    """
    nrows = len(rows)
    pivots: list[int] = []
    smallest = all(len(row) == ncols for row in rows)
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
        p, tail = rr[c], rr[c:]
        for i in range(nrows) if full else range(r + 1, nrows):
            ri = rows[i]
            x = ri[c]
            if not x or i == r:
                continue
            start = pivots[i] if i < r else c
            g0 = math.gcd(p, x)
            pg, xg = p // g0, x // g0
            new = [pg * a - xg * b for a, b in zip(ri[start:], tail if i > r else rr[start:])]
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
    m's transpose when m is tall with at most 64 rows, else of m.  Few rows
    mean few row operations (a 15 x 2 matrix ranks 3x faster transposed),
    but long rows seldom share a factor, and more rows give smaller pivots:
    the 192 x 48 rho(t) of ex6.3/iii at m=3 ranks in 50 ms, not 1 s."""
    t = m.ncols < m.nrows <= 64
    return len(_eliminate(int_rows(zip(*m.rows) if t else m.rows)[0], m.nrows if t else m.ncols, False))


WORD_PRIME = 2**30 - 35  # the largest prime below 2**30


def product_rank_mod_p(left: Sequence, right: Sequence, p: int = WORD_PRIME) -> int:
    """Rank mod p of L R, a lower bound on its rank over Q, for integer L
    given by its sparse rows [(j, L_ij)] and R by its rows.  Each row of R is
    packed into one int, w bits a slot; a row of L R is one multiply-add per
    nonzero of L, and a row update one more by the pivot row reduced mod p.
    With d = len(right) and k = len(left), a slot stays below (d + k) p^2,
    so w = 2 bitlen(p) + bitlen(d + k) + 1 bits never carry over."""
    n = len(right[0]) if right else 0
    w = 2 * p.bit_length() + (len(right) + len(left)).bit_length() + 1
    mask = (1 << w) - 1
    rows = [sum(a % p << w * j for j, a in enumerate(vec)) for vec in right]
    packed = [sum(a % p * rows[j] for j, a in row) for row in left]
    r = 0
    for c in range(n):
        xs = [(x >> w * c & mask) % p for x in packed[r:]]
        piv = next((i for i, x in enumerate(xs) if x), None)
        if piv is None:
            continue
        inv, top = pow(xs[piv], -1, p), packed[r + piv]
        rr = sum((top >> w * j & mask) * inv % p << w * j for j in range(c, n))
        packed[r + piv], xs[piv] = packed[r], xs[0]
        for i, x in enumerate(xs[1:], r + 1):
            if x:
                packed[i] += (p - x) * rr
        r += 1
    return r


def skew_rank(m: Matrix) -> int:
    """Exact rank of a skew-symmetric m, eliminating 2x2 pivot blocks.

    One common lcm clears the denominators, so the integer matrix stays skew.
    The indices from h on, h least with A[h:, h:] = 0, are the tail (V* in a
    Kirillov form of q = g x V*, h = dim g); only the h head rows are stored.
    The pivot row is the first index whose row is nonzero (zero rows before
    it are dropped); the pivot a = A_ij is its entry of least absolute value
    among its tail columns, or among its head columns if those are all zero,
    the first among ties.  i and j leave, the rank grows by 2, and the upper
    triangle of the rest becomes (a A_kl - A_kj A_il + A_ki A_jl) / prev: a
    Pfaffian whatever the pivot order, so the division by the previous pivot
    is exact (Knuth, "Overlapping Pfaffians", 1996); a remainder raises.
    The tail block stays zero (a tail j has A_kj = A_jl = 0 for k, l in the
    tail, a head j comes with A_il = 0 on the tail), so its rows are never
    built, and the rank is complete once no head row is left.
    """
    n, rows = m.nrows, m.rows
    if m.ncols != n or any(r != [-a for a in c] for r, c in zip(rows, zip(*rows))):
        raise ValueError("skew_rank needs a skew-symmetric matrix")
    h = n
    while h and not any(rows[h - 1][h - 1:]):
        h -= 1
    lcm = math.lcm(*[a.denominator for r in rows for a in r if type(a) is Fraction])
    # up[p] holds the entries of head row p right of the diagonal, as ints
    up = [[a.numerator * (lcm // a.denominator) if type(a) is Fraction else a * lcm
           for a in r[p + 1:]] for p, r in enumerate(rows[:h])]
    prev, r = 1, 0
    while up:
        head, h = up[0], len(up)
        # columns q >= h - 1 of head are the tail; a nonzero one comes first
        nz = [q for q in range(h - 1, len(head)) if head[q]] or [q for q, x in enumerate(head) if x]
        if not nz:
            del up[0]
            continue
        j = min(nz, key=lambda q: abs(head[q]))
        a = head[j]
        j += 1  # position of the pivot column in the current matrix
        # minus column 0 and minus column j (A_k0 = -A_0k), over the rest;
        # A_jk = 0 where neither j nor k is a stored head row
        rest = [p for p in range(1, len(head) + 1) if p != j]
        u = [head[p - 1] for p in rest]
        w = [(-up[p][j - p - 1] if p < j else up[j][p - j - 1]) if p < h or j < h else 0
             for p in rest]
        new = []
        for t, p in enumerate(rest[: h - 1 - (j < h)]):
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

    One vector per free column, with entry 1 in that column's slot: the
    unique reduced-echelon basis.  The rows are brought to echelon form only,
    and each vector v is solved from the pivot rows left of its free column,
    bottom up, on integers: at pivot c the dot product d of the row with the
    entries set so far gives v_c = -d / g, g = gcd(d, row[c]), once the set
    entries are scaled by row[c] / g.  Last, v is divided by its free entry.
    """
    rows = int_rows(m.rows)[0]
    pivots = _eliminate(rows, m.ncols, False)
    echelon, kernel = list(zip(rows, pivots)), []
    for fc in sorted(set(range(m.ncols)).difference(pivots)):
        v, done = [0] * m.ncols, [fc]
        v[fc] = 1
        for row, pc in reversed(echelon[:bisect.bisect(pivots, fc)]):
            d = sum(row[j] * v[j] for j in done)
            if d:
                g = math.gcd(d, row[pc])
                v[pc], k = -d // g, row[pc] // g
                for j in done:
                    v[j] *= k
                done.append(pc)
        s = v[fc]
        kernel.append(v if s == 1 else [a // s if a % s == 0 else Fraction(a, s) for a in v])
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
        self._tcols = [nonzeros(c) for c in zip(*self.transform)]
        on_pivot = set(self.pivots)
        self._free = [i for i in range(self.m) if i not in on_pivot]
        self._off_pivot = [
            [(i, b) for i, b in enumerate(v) if b != 0 and i not in on_pivot] for v in self.basis
        ]

    def coords(self, w: Sequence):
        """Coefficients of w in the basis, or None if w is outside the span or of another length."""
        if self.k and len(w) != self.m:
            return None
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
