"""Sparse multivariate polynomials with exact rational coefficients.

Terms are stored in ``packed``, a dict from packed exponent keys to nonzero
coefficients (``int`` or ``Fraction``).  A key holds the exponent vector in
fields of ``FIELD_BITS``, variable 0 in the most significant field and the
total degree in the lowest (Monagan and Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  So a
product of terms adds their keys, a factor v_i adds ``unit_key(n, i)``, and
sorted keys are the exponent tuples in order.  No field carries into the
next while the total degree fits one; each operation that raises the degree
checks that once (``check_degree``) and raises OverflowError rather than
wrap.  The layout is read only in this module: outside it, keys are made
by ``unit_key`` and added, never decoded.  ``terms`` is a fresh dict keyed
by exponent tuples, built from ``packed`` on each access, and the
constructor takes such a dict.  The representation is canonical, so
equality and zero-testing are exact.  No polynomial is changed after it is
built, so adding 0 or multiplying by 1 returns the operand itself.

Every derivative is one kernel, sum_j d_j(p) field_j along a vector field
of polynomials or scalars (linear x.v, polynomial phi(F), constant e_i for
``partial(i)``): ``partials_table(p)`` once per polynomial, ``field_moves``
once per field, and ``derivative_along``, one int add per pair of terms.

Every identity check (``poly_is_zero``, the ``covariants`` checks and the
catalog's extra rows) runs through ``identity_check``, which decides it
exactly or by sampling under a ``CheckContext``: the run's ``mode``,
``seed``, ``samples`` and ``bound``, validated once.  Its ``draw`` is the
one source of random points for every sampled row, estimators included.
``"auto"`` resolves to exact when the identity's ring fits the cutoffs (at
most 40 variables, total degree at most 8), before anything is expanded; an
explicit ``"exact"`` past them raises ``CutoffExceeded``, which a report
shows as a skipped row.  A check with no exact form samples in every mode.

* exact: stops at the first nonzero polynomial.  ``proved_nonzero`` carries
  the witness ``(point, value)``, an integer point and the nonzero value
  there, prefixed as ``(tag, (point, value))`` when the polynomial's tag is
  not None.  ``trials`` is 0.  Unless the caller passes ``rng`` (only
  ``poly_is_zero`` may), the point is searched on a fixed stream,
  ``random.Random(1)`` at bounds 10, 50, 500 and 5000, then by the
  deterministic ``_nonvanishing_point``, whatever the context's ``seed``
  and ``bound`` say (moving it onto ``ctx`` changes the witness bytes).
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

from .linalg import is_scalar, normalize_scalar, power
from .sampling import derive_rng, rand_vector

NEG_INF = float("-inf")

EXACT_MAX_VARS = 40
EXACT_MAX_DEGREE = 8
SAMPLE_BOUND = 10


class CutoffExceeded(Exception):
    """Exact zero-testing refused; the identity is past the symbolic cutoffs."""


FIELD_BITS = 8  # a byte: ``bytes`` packs and unpacks a key's fields
FIELD_MASK = (1 << FIELD_BITS) - 1  # also the largest total degree a key holds


def pack(e: Sequence[int]) -> int:
    """The key of the exponent vector e: e_0 in the most significant field,
    then e_1, ..., and the total degree in the lowest field."""
    d = sum(e)
    check_degree(d)
    return int.from_bytes(bytes(e) + bytes((d,)), "big")  # bytes() rejects e_i < 0


def unpack(key: int, n: int) -> bytes:
    """The exponents e_0, ..., e_(n-1) of a key of n variables."""
    return key.to_bytes(n + 1, "big")[:n]


def unit_key(n: int, i: int) -> int:
    """The key of v_i among n variables; adding it multiplies a term by v_i."""
    return (1 << FIELD_BITS * (n - i)) | 1


def check_degree(d: int) -> None:
    """Raise OverflowError when a term of total degree d would outgrow a field."""
    if d > FIELD_MASK:
        raise OverflowError("total degree %d past the %d-bit exponent field" % (d, FIELD_BITS))


def _degrees(keys):
    return map(FIELD_MASK.__and__, keys)


def _wrap(num_vars: int, packed: dict) -> "MultiPoly":
    p = object.__new__(MultiPoly)
    p.num_vars, p.packed = num_vars, packed
    return p


class MultiPoly:
    __slots__ = ("num_vars", "packed")

    def __init__(self, num_vars: int, terms: dict | None = None):
        """``terms`` maps exponent tuples to coefficients; zeros are dropped."""
        self.num_vars = num_vars
        clean: dict[int, object] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != num_vars:
                    raise ValueError("exponent tuple of wrong length")
                c = normalize_scalar(c)
                if c != 0:
                    clean[pack(e)] = c
        self.packed = clean

    @property
    def terms(self) -> dict:
        """A fresh dict from exponent tuples to coefficients."""
        return {tuple(unpack(k, self.num_vars)): c for k, c in self.packed.items()}

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_packed(num_vars: int, packed: dict) -> "MultiPoly":
        """The polynomial of a dict of packed keys, zero sums dropped."""
        return _wrap(num_vars, {k: normalize_scalar(c) for k, c in packed.items() if c})

    @staticmethod
    def zero(num_vars: int) -> "MultiPoly":
        return _wrap(num_vars, {})

    @staticmethod
    def const(num_vars: int, c) -> "MultiPoly":
        c = normalize_scalar(c)
        return _wrap(num_vars, {0: c} if c != 0 else {})

    @staticmethod
    def variable(num_vars: int, i: int) -> "MultiPoly":
        if not 0 <= i < num_vars:
            raise ValueError("variable index out of range")
        return _wrap(num_vars, {unit_key(num_vars, i): 1})

    @staticmethod
    def variables(num_vars: int) -> list:
        return [MultiPoly.variable(num_vars, i) for i in range(num_vars)]

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        return max(_degrees(self.packed), default=NEG_INF)

    def is_homogeneous(self, d: int | None = None) -> bool:
        degs = set(_degrees(self.packed))
        return len(degs) <= 1 and (d is None or degs <= {d})

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.num_vars == other.num_vars and self.packed == other.packed
        if is_scalar(other):
            t = self.packed
            return not t if other == 0 else len(t) == 1 and t.get(0) == other
        return NotImplemented

    def __hash__(self):
        t = self.packed
        if t.keys() <= {0}:  # a constant equals, so hashes as, its scalar
            return hash(t.get(0, 0))
        return hash((self.num_vars, frozenset(t.items())))

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
        if not o.packed or not self.packed:
            return o if not self.packed else self
        out = dict(self.packed)
        for e, c in o.packed.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = normalize_scalar(s)
        return _wrap(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self):
        return _wrap(self.num_vars, {e: -c for e, c in self.packed.items()})

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
        """A product of terms adds their keys; the degrees of the factors
        are checked against the field width once, before the loop."""
        if is_scalar(other):
            if other == 0:
                return MultiPoly(self.num_vars)
            if other == 1:
                return self
            return _wrap(self.num_vars, {e: normalize_scalar(c * other) for e, c in self.packed.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if other.num_vars != self.num_vars:
            raise ValueError("mixing polynomials from different rings")
        a, b = self.packed, other.packed
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return MultiPoly(self.num_vars)
        check_degree(max(_degrees(a)) + max(_degrees(b)))
        out: dict[int, object] = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                out[e] = get(e, 0) + ca * cb
        return MultiPoly.from_packed(self.num_vars, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if is_scalar(other):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        return power(self, n, lambda: MultiPoly.const(self.num_vars, 1))

    # -- calculus and substitution ---------------------------------------

    def partial(self, i: int) -> "MultiPoly":
        """d/dv_i, the derivative along the constant field e_i."""
        if not 0 <= i < self.num_vars:
            raise ValueError("variable index out of range")
        field = [0] * self.num_vars
        field[i] = 1
        return derivative_along(partials_table(self), field_moves(field))

    def evaluate(self, point: Sequence):
        """Exact evaluation at a point of scalars."""
        if len(point) != self.num_vars:
            raise ValueError("point of wrong length")
        acc = 0
        for e, c in self.packed.items():
            t = c
            for x, k in zip(point, unpack(e, self.num_vars)):
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
        powers: dict[tuple[int, int], MultiPoly] = {}  # (i, k) -> images[i]^k
        acc = MultiPoly(num_vars_out)
        for e, c in self.packed.items():
            t = MultiPoly.const(num_vars_out, c)
            for i, k in enumerate(unpack(e, self.num_vars)):
                if k:
                    if (i, k) not in powers:
                        powers[i, k] = imgs[i] ** k
                    t = t * powers[i, k]
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
        for e, c in self.packed.items():
            *rest, k = unpack(e, self.num_vars)
            buckets.setdefault(k, {})[pack(rest)] = c
        top = max(buckets) if buckets else -1
        return [_wrap(nv, buckets.get(i, {})) for i in range(top + 1)]

    # -- display ----------------------------------------------------------

    def __repr__(self):
        return "MultiPoly(%d vars, %d terms)" % (self.num_vars, len(self.packed))

    def __str__(self):
        return self.pretty()

    def pretty(self, names: Sequence[str] | None = None) -> str:
        if not self.packed:
            return "0"
        if names is None:
            names = ["v%d" % i for i in range(self.num_vars)]
        parts = []
        # sorted keys are the exponent tuples in order
        for e, c in sorted(self.packed.items(), key=lambda t: (-(t[0] & FIELD_MASK), t[0])):
            factors = []
            for i, k in enumerate(unpack(e, self.num_vars)):
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


# -- derivatives along vector fields ---------------------------------------


def partials_table(p: MultiPoly) -> tuple:
    """The partials of p as ``derivative_along`` reads them: ``(num_vars,
    degree, rows)``, rows[j] the flat pairs e, c * e_j over the terms c v^e
    of p with e_j > 0 (a third of the memory of tuples)."""
    n = p.num_vars
    rows: list = [[] for _ in range(n)]
    for e, c in p.packed.items():
        x = e >> FIELD_BITS  # the exponents, without the degree
        while x:  # one step per variable of the term, top field first
            b = (x.bit_length() - 1) // FIELD_BITS  # the field of v_(n-1-b)
            k = x >> b * FIELD_BITS
            x -= k << b * FIELD_BITS
            rows[n - 1 - b] += (e, c * k)
    return n, p.degree(), rows


def field_moves(field: Sequence) -> tuple:
    """The vector field v -> (field_0(v), ..., field_(n-1)(v)), polynomials or
    scalars, as ``derivative_along`` reads it: ``(degree, [(j, [(f - u_j, c),
    ...]), ...])`` over the terms c v^f of each nonzero field_j."""
    n, deg, moves = len(field), NEG_INF, []
    for j, f in enumerate(field):
        f = f if isinstance(f, MultiPoly) else MultiPoly.const(n, f)
        if f.packed:
            u = unit_key(n, j)
            moves.append((j, [(k - u, c) for k, c in f.packed.items()]))
            deg = max(deg, f.degree())
    return deg, moves


def derivative_along(partials: tuple, moves: tuple) -> MultiPoly:
    """sum_j d_j(p) field_j from the ``partials_table`` of p and the
    ``field_moves`` of the field: an entry (e, c e_j) of rows[j] and a move
    (f - u_j, c') give c e_j c' v^(e - u_j + f), one int add and no polynomial
    product.  The degree bound deg p - 1 + deg field is checked once."""
    n, deg, table = partials
    field_deg, rows = moves
    check_degree(deg - 1 + field_deg)
    out: dict = {}
    get = out.get
    for j, row in rows:
        pairs = iter(table[j])
        for e, ck in zip(pairs, pairs):
            for d, a in row:
                key = e + d
                out[key] = get(key, 0) + ck * a
    return MultiPoly.from_packed(n, out)


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
    """The knobs of every sampled row, identity checks and estimators alike:
    exact, sampled or auto ``mode``; the ``seed`` of each row's streams
    (``rng``, ``draw``); ``samples``, the points a sampled row evaluates; and
    ``bound``, their integer range.  Bad knobs raise ValueError here."""

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

    def rng(self, *labels) -> random.Random:
        """The stream of ``seed`` and ``labels``, the same in every process."""
        return derive_rng(self.seed, *labels)

    def draw(self, n: int, *labels) -> Callable[[], list]:
        """Each call a fresh integer vector of length n in [-bound, bound],
        from the stream of ``labels``."""
        rng = self.rng(*labels)
        return lambda: rand_vector(rng, n, self.bound)


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
