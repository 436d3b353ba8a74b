"""Gauss-Jordan elimination in Fraction arithmetic: the oracle for the
fraction-free elimination core of ``semicov.linalg``; and skew matrices of
maximal minors, one determinant per deleted column pair, the oracle for
``minor_skew``, which reads every minor from one memoised table.

``rref`` normalises each pivot row by its pivot and clears its column with
Fraction row operations, the textbook way.  The library scales rows to
integers, eliminates without fractions and divides by the pivot only at the
end.  Both pick the first nonzero entry at or below the current row as the
pivot, so they do the same row operations up to a nonzero scale per row and
must agree on the pivots and on every pivot row.

``rank_mod_p`` is the textbook rank over GF(p), one entry at a time with
every entry reduced after each operation: the oracle for the packed
modular rank of ``semicov.linalg``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from semicov.linalg import Matrix, det, normalize_scalar


def rref(rows: list[list], ncols: int) -> list[int]:
    """Reduce ``rows`` in place to reduced row-echelon form over the first
    ``ncols`` columns and return the pivot columns.

    Later columns (a right-hand side, an identity block) are carried along
    through the same row operations.
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
        rr = rows[r]
        p = rr[c]
        if p != 1:
            inv = 1 / Fraction(p)
            rr[c:] = [normalize_scalar(a * inv) for a in rr[c:]]
        tail = rr[c:]
        for i in range(nrows):
            ri = rows[i]
            f = ri[c]
            if i != r and f != 0:
                ri[c:] = [normalize_scalar(a - f * b) for a, b in zip(ri[c:], tail)]
        pivots.append(c)
    return pivots


def kernel(m: Matrix) -> list[list]:
    """Reduced-echelon basis of {x : m x = 0}: one vector per free column,
    with entry 1 in that column's slot."""
    rows = [list(r) for r in m.rows]
    pivots = rref(rows, m.ncols)
    out = []
    for fc in range(m.ncols):
        if fc in pivots:
            continue
        v = [0] * m.ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = normalize_scalar(-rows[ri][fc])
        out.append(v)
    return out


def rank_mod_p(rows: list[list], p: int) -> int:
    """Rank over GF(p) of ``rows``, each first scaled by the lcm of its
    denominators (as the library scales them)."""
    m = []
    for r in rows:
        lcm = math.lcm(*(Fraction(a).denominator for a in r))
        m.append([int(Fraction(a) * lcm) % p for a in r])
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        for i in range(rank + 1, len(m)):
            f = m[i][c] * inv % p
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def minor_skew(m: Matrix) -> Matrix:
    """Entry (i, j), i < j, is (-1)^(i+j) det(m without columns i and j);
    the matrix is skew."""
    n = m.ncols
    out = Matrix.zeros(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            val = det(m.submatrix(range(m.nrows), [c for c in range(n) if c not in (i, j)]))
            if (i + j) % 2:
                val = -val
            out.rows[i][j] = val
            out.rows[j][i] = -val
    return out
