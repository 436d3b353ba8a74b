"""Polynomials on exponent tuples: the oracle for packed ``MultiPoly`` keys.

``semicov.poly.MultiPoly`` stores each term under one int key that packs the
exponent vector.  ``TuplePoly`` is the same ring with a dict keyed by
exponent tuples, the way the library stored terms before: a product zips
the two tuples, a partial derivative rebuilds one.  ``derivative_along`` and
``phi_expansion`` are the tuple forms of the two ``covariants`` kernels that
rewrite exponents term by term, and ``operator_rows`` gives the rows of an
operator in the shape ``derivative_along`` reads.  Tests compare ``terms`` of both sides, term
for term.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from semicov.linalg import is_scalar, normalize_scalar
from semicov.poly import NEG_INF


class TuplePoly:
    """A polynomial whose ``terms`` dict is keyed by exponent tuples."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: dict | None = None):
        self.num_vars = num_vars
        clean: dict[tuple, object] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != num_vars:
                    raise ValueError("exponent tuple of wrong length")
                c = normalize_scalar(c)
                if c != 0:
                    clean[tuple(e)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(p) -> "TuplePoly":
        """The same polynomial as a ``semicov.poly.MultiPoly`` (or a TuplePoly)."""
        return TuplePoly(p.num_vars, dict(p.terms.items()))

    @staticmethod
    def zero(num_vars: int) -> "TuplePoly":
        return TuplePoly(num_vars)

    @staticmethod
    def const(num_vars: int, c) -> "TuplePoly":
        p = TuplePoly(num_vars)
        c = normalize_scalar(c)
        if c != 0:
            p.terms[(0,) * num_vars] = c
        return p

    @staticmethod
    def variable(num_vars: int, i: int) -> "TuplePoly":
        if not 0 <= i < num_vars:
            raise ValueError("variable index out of range")
        e = [0] * num_vars
        e[i] = 1
        p = TuplePoly(num_vars)
        p.terms[tuple(e)] = 1
        return p

    @staticmethod
    def variables(num_vars: int) -> list:
        return [TuplePoly.variable(num_vars, i) for i in range(num_vars)]

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self, d: int | None = None) -> bool:
        if not self.terms:
            return True
        degs = {sum(e) for e in self.terms}
        if len(degs) != 1:
            return False
        return d is None or degs == {d}

    def __eq__(self, other):
        if isinstance(other, TuplePoly):
            return self.num_vars == other.num_vars and self.terms == other.terms
        if is_scalar(other):
            return self == TuplePoly.const(self.num_vars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TuplePoly):
            if other.num_vars != self.num_vars:
                raise ValueError("mixing polynomials from different rings")
            return other
        if is_scalar(other):
            return TuplePoly.const(self.num_vars, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = normalize_scalar(s)
        p = TuplePoly(self.num_vars)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = TuplePoly(self.num_vars)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if is_scalar(other):
            if other == 0:
                return TuplePoly(self.num_vars)
            p = TuplePoly(self.num_vars)
            p.terms = {e: normalize_scalar(c * other) for e, c in self.terms.items()}
            return p
        if not isinstance(other, TuplePoly):
            return NotImplemented
        if other.num_vars != self.num_vars:
            raise ValueError("mixing polynomials from different rings")
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple, object] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, 0) + ca * cb
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        p = TuplePoly(self.num_vars)
        p.terms = {e: normalize_scalar(c) for e, c in out.items()}
        return p

    __rmul__ = __mul__

    def __truediv__(self, other):
        if is_scalar(other):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = TuplePoly.const(self.num_vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus and substitution ---------------------------------------

    def partial(self, i: int) -> "TuplePoly":
        out: dict[tuple, object] = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            ne = list(e)
            ne[i] = k - 1
            out[tuple(ne)] = normalize_scalar(c * k)
        p = TuplePoly(self.num_vars)
        p.terms = out
        return p

    def evaluate(self, point: Sequence):
        """Exact evaluation at a point of scalars."""
        if len(point) != self.num_vars:
            raise ValueError("point of wrong length")
        acc = 0
        for e, c in self.terms.items():
            t = c
            for x, k in zip(point, e):
                if k:
                    t = t * x**k
            acc = acc + t
        return normalize_scalar(acc)

    def substitute(self, images: Sequence, num_vars_out: int) -> "TuplePoly":
        """Map variable i to images[i] (polynomial or scalar) and expand."""
        if len(images) != self.num_vars:
            raise ValueError("need one image per variable")
        imgs = [
            im if isinstance(im, TuplePoly) else TuplePoly.const(num_vars_out, im)
            for im in images
        ]
        powers: dict[tuple[int, int], TuplePoly] = {}  # (i, k) -> images[i]^k
        acc = TuplePoly(num_vars_out)
        for e, c in self.terms.items():
            t = TuplePoly.const(num_vars_out, c)
            for i, k in enumerate(e):
                if k:
                    if (i, k) not in powers:
                        powers[i, k] = imgs[i] ** k
                    t = t * powers[i, k]
            acc = acc + t
        return acc

    def coefficients_in_last_var(self) -> list["TuplePoly"]:
        """Coefficients of powers of the last variable, as polynomials in the
        remaining variables.  Index i of the result is the coefficient of
        (last var)**i; the list is dense up to the top power."""
        if self.num_vars == 0:
            raise ValueError("no variables")
        nv = self.num_vars - 1
        buckets: dict[int, dict] = {}
        for e, c in self.terms.items():
            k = e[-1]
            buckets.setdefault(k, {})[e[:-1]] = c
        top = max(buckets) if buckets else -1
        return [TuplePoly(nv, buckets.get(i)) for i in range(top + 1)]

    # -- display ----------------------------------------------------------

    def __repr__(self):
        return "TuplePoly(%d vars, %d terms)" % (self.num_vars, len(self.terms))

    def __str__(self):
        return self.pretty()

    def pretty(self, names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = ["v%d" % i for i in range(self.num_vars)]
        parts = []
        for e, c in sorted(self.terms.items(), key=lambda t: (-sum(t[0]), t[0])):
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(names[i])
                elif k > 1:
                    factors.append("%s^%d" % (names[i], k))
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append("%s*%s" % (c, mono))
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


def derivative_along(p, rows: list) -> TuplePoly:
    """Derivative of p along the linear vector field v -> op.v.

    ``rows`` are the nonzero rows of op, shaped like
    ``Representation.nonzero_rows[a]``.  Computed term by term:
    sum_j d_j(p) (op.v)_j sends c v^e to sum_{j, i} c e_j op[j, i]
    v^(e - u_j + u_i), with no polynomial products.  ``p`` is any polynomial
    with a tuple-keyed ``terms``.
    """
    out: dict = {}
    for e, c in p.terms.items():
        exp = list(e)
        for j, row in rows:
            k = e[j]
            if not k:
                continue
            ck = c * k
            exp[j] = k - 1
            for i, a in row:
                exp[i] += 1
                key = tuple(exp)
                exp[i] -= 1
                out[key] = out.get(key, 0) + ck * a
            exp[j] = k
    return TuplePoly(p.num_vars, out)


def phi_expansion(rep, comps) -> list[TuplePoly]:
    """(F(v).v)_i = sum_a sum_j rho_a[i, j] F_a v_j, term by term.  Times v_j
    shifts exponent j: each term of F_a is shifted once per column j of rho_a
    and added to every row i it reaches, so no polynomial product is formed,
    and a sum that cancels is dropped at once."""
    out: list[dict] = [{} for _ in range(rep.dim_v)]
    for comp, rows in zip(comps, rep.nonzero_rows):
        cols: dict = {}
        for i, row in rows:
            for j, r in row:
                cols.setdefault(j, []).append((out[i], r))
        for j, targets in cols.items():
            for e, c in comp.terms.items():
                key = e[:j] + (e[j] + 1,) + e[j + 1:]
                for acc, r in targets:
                    s = acc.get(key, 0) + r * c
                    if s:
                        acc[key] = s
                    else:
                        del acc[key]
    return [TuplePoly(rep.dim_v, acc) for acc in out]


def operator_rows(rep, x: Sequence) -> list:
    """The rows of rho(x) = sum_a x_a rho_a, shaped like ``rep.nonzero_rows[a]``."""
    rows: dict = {}
    for a, xa in enumerate(x):
        if xa != 0:
            for j, row in rep.nonzero_rows[a]:
                acc = rows.setdefault(j, {})
                for i, c in row:
                    acc[i] = normalize_scalar(acc.get(i, 0) + xa * c)
    return [(j, [(i, c) for i, c in acc.items() if c != 0]) for j, acc in sorted(rows.items())]
