"""Sparse multivariate polynomials with exact rational coefficients.

Terms are stored as a dict mapping exponent tuples to nonzero coefficients
(``int`` or ``Fraction``).  The representation is canonical, so equality and
zero-testing are exact.

Every identity check (``poly_is_zero``, the ``covariants`` checks and the
catalog's extra rows) runs through ``identity_check``, which decides it
exactly or by sampling under a ``CheckContext``: the run's ``mode``,
``seed``, ``samples`` and ``bound``, validated once.  ``"auto"`` resolves to
exact when the identity's ring fits the cutoffs (at most 40 variables, total
degree at most 8), before anything is expanded; an explicit ``"exact"`` past
them raises ``CutoffExceeded``, which a report shows as a skipped row.  A
check with no exact form samples in every mode.

* exact: stops at the first nonzero polynomial.  ``proved_nonzero`` carries
  the witness ``(point, value)``, an integer point and the nonzero value
  there, prefixed as ``(tag, (point, value))`` when the polynomial's tag is
  not None.  ``trials`` is 0.
* sampled (Schwartz-Zippel): ``ctx.samples`` points are evaluated; ``trials``
  is the number evaluated, up to and including the failing one for
  ``proved_nonzero``.  The witness is what the check's residual function
  returned there; each caller documents its shape (the extras' in
  ``catalog.families``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .linalg import is_scalar, normalize_scalar

NEG_INF = float("-inf")

EXACT_MAX_VARS = 40
EXACT_MAX_DEGREE = 8
SAMPLE_BOUND = 10


class CutoffExceeded(Exception):
    """Exact zero-testing refused; the identity is past the symbolic cutoffs."""


class MultiPoly:
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
    def zero(num_vars: int) -> "MultiPoly":
        return MultiPoly(num_vars)

    @staticmethod
    def const(num_vars: int, c) -> "MultiPoly":
        p = MultiPoly(num_vars)
        c = normalize_scalar(c)
        if c != 0:
            p.terms[(0,) * num_vars] = c
        return p

    @staticmethod
    def variable(num_vars: int, i: int) -> "MultiPoly":
        if not 0 <= i < num_vars:
            raise ValueError("variable index out of range")
        e = [0] * num_vars
        e[i] = 1
        p = MultiPoly(num_vars)
        p.terms[tuple(e)] = 1
        return p

    @staticmethod
    def variables(num_vars: int) -> list:
        return [MultiPoly.variable(num_vars, i) for i in range(num_vars)]

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
        if isinstance(other, MultiPoly):
            return self.num_vars == other.num_vars and self.terms == other.terms
        if is_scalar(other):
            return self == MultiPoly.const(self.num_vars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.num_vars != self.num_vars:
                raise ValueError("mixing polynomials from different rings")
            return other
        if is_scalar(other):
            return MultiPoly.const(self.num_vars, other)
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
        p = MultiPoly(self.num_vars)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = MultiPoly(self.num_vars)
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
                return MultiPoly(self.num_vars)
            p = MultiPoly(self.num_vars)
            p.terms = {e: normalize_scalar(c * other) for e, c in self.terms.items()}
            return p
        if not isinstance(other, MultiPoly):
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
        p = MultiPoly(self.num_vars)
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
        result = MultiPoly.const(self.num_vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus and substitution ---------------------------------------

    def partial(self, i: int) -> "MultiPoly":
        out: dict[tuple, object] = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            ne = list(e)
            ne[i] = k - 1
            out[tuple(ne)] = normalize_scalar(c * k)
        p = MultiPoly(self.num_vars)
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

    def substitute(self, images: Sequence, num_vars_out: int) -> "MultiPoly":
        """Map variable i to images[i] (polynomial or scalar) and expand."""
        if len(images) != self.num_vars:
            raise ValueError("need one image per variable")
        imgs = [
            im if isinstance(im, MultiPoly) else MultiPoly.const(num_vars_out, im)
            for im in images
        ]
        pow_cache: dict[tuple[int, int], MultiPoly] = {}

        def ipow(i: int, k: int) -> MultiPoly:
            key = (i, k)
            got = pow_cache.get(key)
            if got is None:
                got = imgs[i] ** k
                pow_cache[key] = got
            return got

        acc = MultiPoly(num_vars_out)
        for e, c in self.terms.items():
            t = MultiPoly.const(num_vars_out, c)
            for i, k in enumerate(e):
                if k:
                    t = t * ipow(i, k)
            acc = acc + t
        return acc

    def coefficients_in_last_var(self) -> list["MultiPoly"]:
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
        out = []
        for i in range(top + 1):
            p = MultiPoly(nv)
            p.terms = dict(buckets.get(i, {}))
            out.append(p)
        return out

    # -- display ----------------------------------------------------------

    def __repr__(self):
        return "MultiPoly(%d vars, %d terms)" % (self.num_vars, len(self.terms))

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


class ZeroCheck:
    """Outcome of a polynomial zero test."""

    __slots__ = ("verdict", "mode", "trials", "witness")

    def __init__(self, verdict: str, mode: str, trials: int = 0, witness=None):
        self.verdict = verdict  # proved_zero | proved_nonzero | sampled_zero
        self.mode = mode
        self.trials = trials
        self.witness = witness  # proved_nonzero only; shapes in the module docstring

    @property
    def is_zero(self) -> bool:
        return self.verdict in ("proved_zero", "sampled_zero")

    def __repr__(self):
        return "ZeroCheck(%s, %s, trials=%d)" % (self.verdict, self.mode, self.trials)


def _within_cutoffs(num_vars: int, degree) -> bool:
    return degree is not None and num_vars <= EXACT_MAX_VARS and degree <= EXACT_MAX_DEGREE


def resolve_mode(mode: str, num_vars: int, degree) -> str:
    """Resolve "auto" against the symbolic cutoffs before any expansion;
    ``mode`` is a ``CheckContext`` mode, already validated."""
    if mode != "auto":
        return mode
    return "exact" if _within_cutoffs(num_vars, degree) else "sampled"


@dataclass(frozen=True)
class CheckContext:
    """The knobs of every identity check: exact, sampled or auto ``mode``;
    the ``seed`` of each check's rng stream; ``samples``, the points a
    sampled check evaluates; and ``bound``, the integer range of those
    points.  Bad knobs raise ValueError here, before any check runs."""

    mode: str = "auto"
    seed: int = 0
    samples: int = 20
    bound: int = 10

    def __post_init__(self):
        if self.mode not in ("exact", "sampled", "auto"):
            raise ValueError("mode must be exact, sampled, or auto")
        for knob in ("samples", "bound"):
            if getattr(self, knob) < 1:
                raise ValueError("%s must be at least 1, got %d" % (knob, getattr(self, knob)))


def identity_check(
    ctx: CheckContext,
    num_vars: int,
    degree,
    exact: Callable[[], Iterable[tuple[object, MultiPoly]]] | None,
    sample: Callable[[], object],
    residual: Callable[[object], object],
    rng: random.Random | None = None,
) -> ZeroCheck:
    """Decide one polynomial identity exactly or by sampling.

    ``num_vars`` and ``degree`` (None when unknown) size the identity's ring.
    Exact mode iterates ``exact()``, the lazily expanded ``(tag, polynomial)``
    pairs; ``rng`` seeds its witness search.  Sampled mode evaluates
    ``residual(sample())``, a witness or None, at ``ctx.samples`` points.
    ``exact=None`` marks a check with no exact form: it samples whatever
    ``ctx.mode`` says, without resolving a mode or meeting the cutoffs.
    Results follow the module docstring.
    """
    if exact is not None and resolve_mode(ctx.mode, num_vars, degree) == "exact":
        if not _within_cutoffs(num_vars, degree):
            raise CutoffExceeded(
                "exact identity refused: %d vars, degree %s" % (num_vars, degree)
            )
        for tag, p in exact():
            if not p.is_zero():
                point = _nonzero_point(p, rng)
                witness = (point, p.evaluate(point))
                return ZeroCheck(
                    "proved_nonzero", "exact", witness=witness if tag is None else (tag, witness)
                )
        return ZeroCheck("proved_zero", "exact")
    for t in range(ctx.samples):
        witness = residual(sample())
        if witness is not None:
            return ZeroCheck("proved_nonzero", "sampled", trials=t + 1, witness=witness)
    return ZeroCheck("sampled_zero", "sampled", trials=ctx.samples)


def poly_is_zero(
    p: MultiPoly,
    mode: str = "exact",
    rng: random.Random | None = None,
    trials: int | None = None,
    bound: int = SAMPLE_BOUND,
) -> ZeroCheck:
    """Exact or sampled zero test of one polynomial.

    Sampled mode evaluates at uniform integer points in [-bound, bound];
    ``trials`` defaults to total degree + 3.  The witness is (point, value).
    """
    deg = max(p.degree(), 0)
    ctx = CheckContext(mode, samples=deg + 3 if trials is None else trials, bound=bound)
    draw = rng if rng is not None else random.Random(0)

    def sample():
        return [draw.randint(-bound, bound) for _ in range(p.num_vars)]

    def residual(point):
        val = p.evaluate(point)
        return (point, val) if val != 0 else None

    return identity_check(ctx, p.num_vars, deg, lambda: [(None, p)], sample, residual, rng=rng)


def _nonzero_point(p: MultiPoly, rng: random.Random | None) -> list:
    """A concrete integer point where p (nonzero) does not vanish."""
    if rng is None:
        rng = random.Random(1)
    for bound in (SAMPLE_BOUND, 50, 500, 5000):
        for _ in range(200):
            point = [rng.randint(-bound, bound) for _ in range(p.num_vars)]
            if p.evaluate(point) != 0:
                return point
    return _nonvanishing_point(p)


def _nonvanishing_point(p: MultiPoly) -> list:
    """Deterministic point of {0, ..., deg}^n where the nonzero p does not vanish.

    Recursively find a point where the top coefficient c_k of the last
    variable is nonzero; p is then a nonzero univariate polynomial of degree
    k in the last variable, so one of t = 0, ..., k is not a root.
    """
    if p.num_vars == 0:
        return []
    coeffs = p.coefficients_in_last_var()
    head = _nonvanishing_point(coeffs[-1])
    return next(head + [t] for t in range(len(coeffs)) if p.evaluate(head + [t]) != 0)
