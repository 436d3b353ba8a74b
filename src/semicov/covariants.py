"""Polynomial covariants V -> g and the identity checks built on them.

A covariant is a polynomial map from a module V into its Lie algebra g.  It
is stored either as a ring-generic formula producing a matrix in the
algebra's realisation, or directly as coordinate polynomials on g's basis.
Every identity check comes in two flavours:

* exact -- the identity is expanded in the canonical polynomial ring and
  must vanish termwise; refused past the symbolic cutoffs,
* sampled -- the identity is evaluated at random integer points
  (Schwartz-Zippel style), with a re-evaluatable witness on failure.

``mode="auto"`` resolves to exact whenever the identity's ring fits the
cutoffs, and to sampled otherwise.  The resolution happens *before* any
symbolic expansion, so oversized rings are never materialised by accident.

Every check reads F in g's basis coordinates (the cached ``components`` in
exact mode, ``coords_at`` at sampled points); g's matrix realisation is
faithful, so a value vanishes exactly when its coordinates do.  The action
(x*F)(v) = [x, F(v)] - DF_v(x.v) is ``act_on_components``; its matrix form
``act_on_matrix_polys`` is the oracle that tests compare it against.  x -> x*F
is a representation of g, so ``verify`` checks it on Lie generators of a scope.

Every ``*_check`` takes the run's ``poly.CheckContext`` as its last
argument and runs through ``poly.identity_check``: a sampled check evaluates
``ctx.samples`` points in ``[-ctx.bound, ctx.bound]``, drawn by
``ctx.draw`` from the check's own labelled stream, and ``trials`` is the
number it evaluated.  An exact failure carries ``(point, value)``,
value a coordinate, prefixed by the basis index ``a`` (equivariance) or by
``((i, j), a)`` (poisson_commute).  Sampled witnesses: kernel_phi
``(v, phi(F)(v))``; equivariance ``(a, v, coordinates of (e_a*F)(v))``;
covariant_zero and covariant_match ``(v, coordinates of the residual)``;
lift_invariance ``(v, phi(F)(v))``, as kernel_phi; poisson_commute
``((i, j), (xi, v), bracket)``; invariant ``(a, v, derivative along x_a)``.
The catalog's extras reuse these or ``catalog.families.identity_extra``.

Sampled checks evaluate each covariant once per point.  Directional
derivatives come from one evaluation at dual numbers ``v + eps w`` (``_Dual``,
exact int/Fraction parts); DF_v is linear in w, so w = 0 costs no evaluation.
Exact derivatives are ``poly.derivative_along`` along fields this module
builds: v -> x.v by ``Representation.act`` on V's coordinate polynomials
(equivariance, invariants) and ``phi_polys`` (Poisson); partials tables are
cached beside ``components`` and ``phi_polys``.  Both rows about the lifts
``F_hat(xi, v) = <xi, F(v)>`` use one closed form each, in both modes:

    F_hat(xi + mu(v, zeta), v) - F_hat(xi, v) = <zeta, phi(F)(v)>,
    {F_hat, G_hat}(xi, v) = <xi, [F(v), G(v)] - DG_v(phi(F)(v)) + DF_v(phi(G)(v))>,

with ``mu_a(v, zeta) = <zeta, e_a.v>`` and ``phi(F)(v) = F(v).v``; the signs
follow ``[e_a, zeta_j] = -sum_i rho_a[j, i] zeta_i`` in ``semidirect``.  So
the kernel_phi and lift_invariance rows share one phi check (``_phi_check``):
``phi(F)`` expanded exactly (witness ``(v, value)``, a coordinate of
``phi(F)(v)``), or at sampled v alone, with no xi or zeta drawn.  They differ
only in sizing and in the stream their points come from.  Exact
poisson_commute expands the bracket's xi_a coefficients on V (witness
``(((i, j), a), (v, value))``).  ``auto`` still sizes the lift rows by the
rings of the lifts (dim g + 2 dim V variables, and dim q): the expansions on
V have fewer variables and no higher degree, so every row resolves as before
and no exact row is refused.  ``components`` and ``phi_polys`` are cached on
the covariant, so kernel_phi, equivariance, the lift rows and Poisson share
one expansion of each covariant; ``phi_polys`` adds unit keys to the packed
exponents of the components and forms no polynomial product.  For a kernel
family phi(F)(v) = 0, so the sampled bracket takes no derivative at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .lie import Representation, Subspace
from .linalg import Matrix, normalize_scalar, power, rank, solve
from .poly import (  # noqa: F401 (re-export)
    CheckContext, MultiPoly, ZeroCheck, check_degree, derivative_along, field_moves, identity_check,
    partials_table, resolve_mode, unit_key,
)
from .semidirect import SemidirectProduct


def _as_poly(x, num_vars: int) -> MultiPoly:
    if isinstance(x, MultiPoly):
        return x
    return MultiPoly.const(num_vars, x)


def _untagged(polys):
    return ((None, p) for p in polys)


def _coords_witness(v, coords: list):
    return (v, coords) if any(c != 0 for c in coords) else None


class Covariant:
    """Polynomial map V -> g attached to a representation of g on V.

    Exactly one of ``matrix_formula`` (coords of V, in any commutative ring,
    to a matrix in g's realisation) or ``components`` (one polynomial per
    basis element of g) must describe the map.  Components are derived on
    demand and cached for symbolic work; a formula, when given, is what every
    evaluation runs.  ``degree`` is the stated polynomial degree, used to
    budget exact checks before anything is expanded.
    """

    def __init__(
        self,
        rep: Representation,
        matrix_formula: Callable[[Sequence], Matrix] | None = None,
        components: Sequence[MultiPoly] | None = None,
        name: str = "",
        degree: int | None = None,
    ):
        if (matrix_formula is None) == (components is None):
            raise ValueError("give a matrix formula or components, not both")
        self.rep = rep
        self.name = name
        self._formula = matrix_formula
        self._components = list(components) if components is not None else None
        if self._components is not None:
            if len(self._components) != rep.algebra.dim:
                raise ValueError("need one component per algebra basis element")
            if degree is None:
                degree = max(0, *(p.degree() for p in self._components))
        self.degree = degree
        self._phi: list[MultiPoly] | None = None
        self._tables: list[tuple] | None = None

    def __repr__(self):
        return "Covariant(%s: %s -> %s)" % (
            self.name or "F",
            self.rep.label or "V",
            self.rep.algebra.name,
        )

    # -- evaluation -----------------------------------------------------

    def matrix_at(self, v: Sequence) -> Matrix:
        """F(v) in the algebra's matrix realisation; v in any ring."""
        if self._formula is not None:
            return self._formula(list(v))
        return _algebra_matrix(self.rep.algebra, self.coords_at(v))

    def coords_at(self, v: Sequence) -> list:
        """F(v) in g's basis coordinates; entries live in v's ring."""
        if self._formula is None:
            return [_eval_component(p, v) for p in self._components]
        coords = self.rep.algebra.coords(self._formula(list(v)))
        if coords is None:
            raise ValueError("covariant %r left its algebra at %r" % (self.name, v))
        return coords

    @property
    def components(self) -> list[MultiPoly]:
        """Coordinate polynomials of F on g's basis (built once, cached)."""
        if self._components is None:
            vs = MultiPoly.variables(self.rep.dim_v)
            coords = self.coords_at(vs)
            self._components = [_as_poly(c, self.rep.dim_v) for c in coords]
            if self.degree is None:
                self.degree = max(0, *(p.degree() for p in self._components))
        return self._components


class _Dual:
    """Dual number a + b*eps with eps^2 = 0; carries one derivative.

    Parts are exact scalars (int or Fraction), so a covariant formula or
    component evaluated at ``[_Dual(v_i, w_i)]`` yields F(v) in the a-parts
    and the directional derivative DF_v(w) in the b-parts.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = a
        self.b = b

    def __add__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.a + other.a, self.b + other.b)
        return _Dual(self.a + other, self.b)

    __radd__ = __add__

    def __neg__(self):
        return _Dual(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)
        return _Dual(self.a * other, self.b * other)

    __rmul__ = __mul__

    def __pow__(self, e):
        return power(self, e, lambda: _Dual(1))

    def __eq__(self, other):
        if isinstance(other, _Dual):
            return self.a == other.a and self.b == other.b
        return self.b == 0 and self.a == other


def _dual_point(v: Sequence, w: Sequence) -> list:
    return [_Dual(vi, wi) for vi, wi in zip(v, w)]


def _eps(x):
    """The eps-part of a value computed at a dual point (0 for a constant)."""
    return normalize_scalar(x.b) if isinstance(x, _Dual) else 0


def _eval_component(p: MultiPoly, v: Sequence):
    if v and isinstance(v[0], MultiPoly):
        return p.substitute(v, v[0].num_vars)
    return p.evaluate(v)


# -- infinitesimal action on covariants ----------------------------------


def directional_derivative(F: Covariant, v: Sequence, w: Sequence) -> Matrix:
    """DF_v(w) at a numeric point, as a matrix: the eps-part of F(v + eps w)."""
    return F.matrix_at(_dual_point(v, w)).map(_eps)


def _derivative_coords(F: Covariant, v: Sequence, w: Sequence) -> list:
    """DF_v(w) at a numeric point, in g's basis coordinates.  DF_v is linear
    in w, so w = 0 gives zeros and F is not evaluated."""
    if all(x == 0 for x in w):
        return [0] * F.rep.algebra.dim
    return [_eps(c) for c in F.coords_at(_dual_point(v, w))]


def act_on_matrix_polys(F: Covariant, x: Sequence) -> Matrix:
    """(x*F)(v) = [X, F(v)] - DF_v(x.v), symbolically, as a polynomial matrix.

    The matrix form of ``act_on_components``, kept as the oracle that tests
    compare the coordinate action against; it expands F's matrix itself.
    """
    nv = F.rep.dim_v
    fmat = F.matrix_at(MultiPoly.variables(nv)).map(lambda e: _as_poly(e, nv))
    xmat = _algebra_matrix(F.rep.algebra, x)
    bracket = xmat * fmat - fmat * xmat
    moves = field_moves(F.rep.act(x, MultiPoly.variables(nv)))
    return bracket.map(lambda e: _as_poly(e, nv)) - fmat.map(lambda e: derivative_along(partials_table(e), moves))


def act_on_components(F: Covariant, x: Sequence) -> list[MultiPoly]:
    """(x*F) in g's basis coordinates, one polynomial per basis element:
    the bracket with x minus the derivative along the linear field v -> x.v."""
    nv = F.rep.dim_v
    bracket = F.rep.algebra.bracket_coords(list(x), F.components)
    moved = _along(F, F.rep.act(x, MultiPoly.variables(nv)))
    return [_as_poly(br, nv) - d for br, d in zip(bracket, moved)]


def _along(F: Covariant, field: list) -> list[MultiPoly]:
    """The derivatives of F's components along a vector field on V.  Each
    ``partials_table`` is built once, cached on F; a zero field builds none."""
    moves = field_moves(field)
    if not moves[1]:
        return [MultiPoly.zero(F.rep.dim_v)] * len(F.components)
    if F._tables is None:
        F._tables = [partials_table(p) for p in F.components]
    return [derivative_along(t, moves) for t in F._tables]


def _algebra_matrix(algebra, x: Sequence) -> Matrix:
    basis = algebra.basis
    if basis is None:
        raise ValueError("algebra has no matrix realisation")
    out = Matrix.zeros(basis[0].nrows, basis[0].ncols)
    for c, b in zip(x, basis):
        if c != 0:
            out = out + b * c
    return out


def _basis_coords(dim: int, a: int) -> list:
    e = [0] * dim
    e[a] = 1
    return e


# -- the kernel condition ------------------------------------------------


def phi_polys(F: Covariant) -> list[MultiPoly]:
    """phi(F)(v) = F(v).v as coordinate polynomials on V (built once from
    ``F.components``, cached on F)."""
    if F._phi is None:
        F._phi = _phi_expansion(F.rep, F.components)
    return F._phi


def _phi_expansion(rep: Representation, comps: Sequence[MultiPoly]) -> list[MultiPoly]:
    """(F(v).v)_i = sum_a sum_j rho_a[i, j] F_a v_j, term by term.  Times v_j
    adds the unit key u_j: each term of F_a is shifted once per column j of
    rho_a and added to every row i it reaches, so no polynomial product is
    formed.  Each F_a's degree is checked against the field width once."""
    n = rep.dim_v
    out: list[dict] = [{} for _ in range(n)]
    for comp, rows in zip(comps, rep.nonzero_rows):
        if comp.is_zero():
            continue
        check_degree(comp.degree() + 1)
        cols: dict = {}
        for i, row in rows:
            for j, r in row:
                cols.setdefault(j, []).append((out[i], r))
        for j, targets in cols.items():
            u = unit_key(n, j)
            for e, c in comp.packed.items():
                key = e + u
                for acc, r in targets:
                    acc[key] = acc.get(key, 0) + r * c
    return [MultiPoly.from_packed(n, acc) for acc in out]


def phi_at(F: Covariant, v: Sequence) -> list:
    """phi(F)(v) = F(v).v at a numeric point."""
    return F.rep.act(F.coords_at(v), list(v))


def _phi_check(
    F: Covariant, ctx: CheckContext, stream: str, num_vars: int, deg_shift: int
) -> ZeroCheck:
    """phi(F) = 0: exact mode expands ``phi_polys(F)``, sampled mode draws v
    from the ``stream`` stream (witness ``(v, phi(F)(v))``).  ``auto`` sizes
    the identity as ``num_vars`` variables of degree deg F + ``deg_shift``."""
    nv = F.rep.dim_v
    deg = None if F.degree is None else F.degree + deg_shift
    return identity_check(
        ctx, num_vars, deg, lambda: _untagged(phi_polys(F)),
        ctx.draw(nv, stream, F.name), lambda v: _coords_witness(v, phi_at(F, v)),
    )


def kernel_phi_check(F: Covariant, ctx: CheckContext = CheckContext()) -> ZeroCheck:
    """Does F(v) stabilise v identically, i.e. phi(F) = 0?  Sized by V."""
    return _phi_check(F, ctx, "kernel_phi", F.rep.dim_v, 1)


# -- equivariance ----------------------------------------------------------


def equivariance_check(
    F: Covariant, basis_indices: Sequence[int] | None = None, ctx: CheckContext = CheckContext()
) -> ZeroCheck:
    """x*F = 0 for every basis element x in the given index range.

    ``basis_indices`` restricts the scope (to one factor of a product, or to
    Lie generators of a scope); None means the whole algebra.  Exact mode expands
    ``act_on_components(F, e_a)`` from the cached components; sampled mode
    evaluates F once per point, then [e_a, F(v)] - DF_v(e_a.v) for each a.
    """
    nv = F.rep.dim_v
    g = F.rep.algebra
    indices = list(basis_indices) if basis_indices is not None else list(range(g.dim))

    def polys():
        for a in indices:
            yield from ((a, p) for p in act_on_components(F, _basis_coords(g.dim, a)))

    def residual(v):
        coords = F.coords_at(v)
        for a in indices:
            bracket = g.bracket_coords(_basis_coords(g.dim, a), coords)
            moved = _derivative_coords(F, v, F.rep.act_basis(a, v))
            out = [normalize_scalar(b - d) for b, d in zip(bracket, moved)]
            if any(c != 0 for c in out):
                return (a, v, out)
        return None

    return identity_check(ctx, nv, F.degree, polys, ctx.draw(nv, "equivariance", F.name), residual)


# -- vanishing and coincidence of covariants ------------------------------


def covariant_zero_check(F: Covariant, ctx: CheckContext = CheckContext()) -> ZeroCheck:
    """F = 0 identically."""
    nv = F.rep.dim_v
    return identity_check(
        ctx, nv, F.degree, lambda: _untagged(F.components),
        ctx.draw(nv, "vanishing", F.name), lambda v: _coords_witness(v, F.coords_at(v)),
    )


def covariant_match_check(
    F: Covariant, G: Covariant, coeff=1, ctx: CheckContext = CheckContext()
) -> ZeroCheck:
    """F = coeff * G as polynomial maps."""
    nv = F.rep.dim_v
    deg = None
    if F.degree is not None and G.degree is not None:
        deg = max(F.degree, G.degree)

    def residual(v):
        diff = [normalize_scalar(f - g * coeff) for f, g in zip(F.coords_at(v), G.coords_at(v))]
        return _coords_witness(v, diff)

    return identity_check(
        ctx, nv, deg,
        lambda: _untagged(a - b * coeff for a, b in zip(F.components, G.components)),
        ctx.draw(nv, "match", F.name, G.name), residual,
    )


# -- linear span of a family ----------------------------------------------


def _coefficient_rows(polys: Sequence[Sequence[MultiPoly]]) -> list[list]:
    """One row per list of polynomials: its coefficients over every (index,
    monomial) that any of the lists uses, in sorted order."""
    keys = sorted({(i, e) for comps in polys for i, p in enumerate(comps) for e in p.packed})
    return [[comps[i].packed.get(e, 0) for i, e in keys] for comps in polys]


def express_in_span(target: Sequence[MultiPoly], family: Sequence[Sequence[MultiPoly]]):
    """Exact coefficients writing target in the linear span of the family.

    Both the target and each family member are lists of polynomials (e.g.
    covariant components).  Returns the coefficient list, or None when the
    target lies outside the span.
    """
    *cols, rhs = _coefficient_rows(list(family) + [target])
    if not rhs:
        return [0] * len(family)
    return solve(Matrix([[c[r] for c in cols] for r in range(len(rhs))]), rhs)


def family_rank(family: Sequence[Covariant]) -> int:
    """Rank of the family as vectors of coefficient data (exact)."""
    rows = _coefficient_rows([F.components for F in family])
    return rank(Matrix(rows)) if rows and rows[0] else 0


def action_matrix_on_span(family: Sequence[Covariant], x: Sequence):
    """Matrix of F -> x*F on the family's span, or None if not stable.

    Column j holds the coefficients of x*F_j in the family basis.
    """
    comps_list = [F.components for F in family]
    cols = []
    for F in family:
        acted = act_on_components(F, x)
        coeffs = express_in_span(acted, comps_list)
        if coeffs is None:
            return None
        cols.append(coeffs)
    return Matrix.from_cols(cols)


# -- independence and pointwise span ---------------------------------------


def values_matrix_at(family: Sequence[Covariant], v: Sequence) -> Matrix:
    """Columns F_i(v) in g's basis coordinates."""
    return Matrix.from_cols([F.coords_at(v) for F in family])


@dataclass
class KernelSpanReport:
    """Pointwise comparison of span{F_i(v)} with the stabiliser of v."""

    contained: bool
    witness: object
    samples: list
    generic_stab_dim: int
    spans_generically: bool


def kernel_span_check(
    family: Sequence[Covariant], sample: Sequence[tuple[list, Subspace]]
) -> KernelSpanReport:
    """At each (point, stabiliser) pair of ``sample`` (as drawn by
    ``lie.stabiliser_sample``): every F_i(v) lies in the stabiliser of v, and
    at points where the stabiliser has its generic (minimal sampled)
    dimension the values span it."""
    samples = []
    contained = True
    witness = None
    for v, stab in sample:
        vals = values_matrix_at(family, v)
        for j, F in enumerate(family):
            if not stab.contains(vals.col(j)):
                contained = False
                if witness is None:
                    witness = (F.name, v)
        samples.append((stab.dim, rank(vals)))
    generic = min(d for d, _ in samples)
    spans = all(r == d for d, r in samples if d == generic)
    return KernelSpanReport(contained, witness, samples, generic, spans)


# -- lifts to the semidirect product ---------------------------------------


def lift_invariance_check(
    q: SemidirectProduct, F: Covariant, ctx: CheckContext = CheckContext()
) -> ZeroCheck:
    """F_hat(xi + mu(v, zeta), v) = F_hat(xi, v) for all zeta, i.e. phi(F) = 0.

    The change of the lift is <zeta, phi(F)(v)>, zero for every zeta exactly
    when phi(F)(v) is.  So this is the check of ``kernel_phi_check`` on its
    own stream, sized by the (xi, v, zeta) ring of the lift.
    """
    if q.rep is not F.rep:
        raise ValueError("covariant and semidirect product use different modules")
    return _phi_check(F, ctx, "lift_invariance", q.dim_g + 2 * q.dim_v, 2)


def poisson_coords(F: Covariant, G: Covariant) -> list[MultiPoly]:
    """{F_hat, G_hat} as polynomials on V, one per basis element of g.

    Coordinate a is the coefficient of xi_a in the closed form of the module
    docstring: [F, G]_a - D_{phi(F)} G_a + D_{phi(G)} F_a.  The D-terms
    vanish where phi does, so a kernel family costs one bracket per pair.
    """
    nv = F.rep.dim_v
    bracket = F.rep.algebra.bracket_coords(F.components, G.components)
    dg, df = _along(G, phi_polys(F)), _along(F, phi_polys(G))
    return [_as_poly(b, nv) - g + f for b, g, f in zip(bracket, dg, df)]


def lift_gradient_at(F: Covariant, xi: Sequence, v: Sequence) -> list:
    """Gradient of the lift at a numeric point, without symbolic components.

    The xi-partials are the coordinates F_a(v); the v_i-partial is xi paired
    with DF_v(e_i), one dual-number evaluation per coordinate of V.
    """
    dv = F.rep.dim_v
    grad = list(F.coords_at(v))
    for i in range(dv):
        d = _derivative_coords(F, v, _basis_coords(dv, i))
        grad.append(normalize_scalar(sum(x * c for x, c in zip(xi, d))))
    return grad


def _lift_data(q: SemidirectProduct, F: Covariant, v: Sequence) -> tuple:
    """F(v) in coordinates and F(v).v: what every bracket of F_hat needs at v."""
    coords = F.coords_at(v)
    return coords, q.rep.act(coords, v)


def poisson_pair_at(
    q: SemidirectProduct, F: Covariant, G: Covariant, xi: Sequence, v: Sequence, lifted=None
):
    """{F_hat, G_hat} at the dual point (xi, v), by the module docstring's
    closed form <xi, [F(v), G(v)] - DG_v(F(v).v) + DF_v(G(v).v)>.

    Costs one evaluation of each covariant at v, plus one dual-number
    derivative for each of phi(F)(v), phi(G)(v) that is not zero (none for
    a kernel family); ``lifted`` is the pair of ``_lift_data`` of F and G at
    v when the caller has already evaluated them.
    """
    if lifted is None:
        lifted = (_lift_data(q, F, v), _lift_data(q, G, v))
    (f_coords, f_moved), (g_coords, g_moved) = lifted
    bracket = q.g.bracket_coords(f_coords, g_coords)
    dg = _derivative_coords(G, v, f_moved)
    df = _derivative_coords(F, v, g_moved)
    acc = 0
    for x, b, d_g, d_f in zip(xi, bracket, dg, df):
        if x != 0:
            acc = acc + x * (b - d_g + d_f)
    return normalize_scalar(acc)


def poisson_commute_check(
    q: SemidirectProduct, family: Sequence[Covariant], ctx: CheckContext = CheckContext()
) -> ZeroCheck:
    """All pairwise Poisson brackets of the lifted family vanish.

    Exact mode expands ``poisson_coords`` of each pair, tagged ``((i, j), a)``;
    a failure's value is ``poisson_pair_at(q, F_i, F_j, e_a, v)``.  Sampled
    mode evaluates the bracket at random (xi, v).  ``auto`` sizes the
    identity by dim q, as the module docstring says.
    """
    degs = [F.degree for F in family]
    deg = None
    if all(d is not None for d in degs) and len(family) >= 2:
        top = sorted(degs)[-2:]
        deg = top[0] + top[1] + 1
    elif len(family) < 2:
        deg = 0
    pairs = [(i, j) for i in range(len(family)) for j in range(i + 1, len(family))]
    draw = ctx.draw(q.dim, "poisson", *(F.name for F in family))

    def polys():
        for i, j in pairs:
            for a, p in enumerate(poisson_coords(family[i], family[j])):
                yield ((i, j), a), p

    def residual(point):
        # one draw of q* = g* + V: xi first, then v
        xi, v = point[: q.dim_g], point[q.dim_g :]
        data = [_lift_data(q, F, v) for F in family] if pairs else []
        for i, j in pairs:
            val = poisson_pair_at(q, family[i], family[j], xi, v, (data[i], data[j]))
            if val != 0:
                return ((i, j), (xi, v), val)
        return None

    return identity_check(ctx, q.dim, deg, polys, draw, residual)


# -- parameter families -----------------------------------------------------


def parameter_coefficients(
    rep: Representation,
    formula: Callable[[Sequence], Matrix],
    name_fmt: str = "F[{k}]",
    width: int | None = None,
) -> list[Covariant]:
    """Split a one-parameter formula into coefficient covariants.

    The formula receives dim V + 1 ring elements, the last being the formal
    parameter; the result is one covariant per parameter power (constant
    term first).  Zero coefficients are kept so indices match powers; pass
    `width` to pad with trailing zero covariants up to a known length.
    """
    nv = rep.dim_v
    vs = MultiPoly.variables(nv + 1)
    coords = rep.algebra.coords(formula(vs))
    if coords is None:
        raise ValueError("parameter formula left the algebra")
    split = [_as_poly(c, nv + 1).coefficients_in_last_var() for c in coords]
    width = max(max((len(s) for s in split), default=0), width or 0)
    out = []
    for k in range(width):
        comps = [s[k] if k < len(s) else MultiPoly.zero(nv) for s in split]
        out.append(Covariant(rep, components=comps, name=name_fmt.format(k=k)))
    return out


# -- weights, audits, invariants -------------------------------------------


def weight_under(F: Covariant, x: Sequence):
    """Exact eigenvalue of F under the algebra element x, or None.

    Returns the scalar c with x*F = c F when the acted covariant is
    proportional to F, and None otherwise.
    """
    m = action_matrix_on_span([F], x)
    return None if m is None else m.rows[0][0]


def independence_rank_at(family: Sequence[Covariant], v: Sequence) -> int:
    """Rank of the value matrix [F_1(v) | ... | F_m(v)] (exact)."""
    return rank(values_matrix_at(family, v))


@dataclass(frozen=True)
class DegreeAudit:
    """Arithmetic audit of a covariant family against quotient data.

    ``codim`` is dim V minus the top degree of the invariant algebra's
    Poincare series; a family whose degrees sum to exactly that value is in
    the equality case, a larger sum is a surplus, a smaller one violates the
    lower bound.  The report's bq_bookkeeping row checks the combined
    identity q + sum(deg_i + 1) == dim V + l.
    """

    degrees: tuple
    total: int
    codim: int
    surplus: int
    verdict: str


def degree_audit(degrees: Sequence[int], dim_v: int, q_quotient: int) -> DegreeAudit:
    degs = tuple(int(d) for d in degrees)
    total = sum(degs)
    codim = dim_v - q_quotient
    surplus = total - codim
    if surplus == 0:
        verdict = "equality"
    elif surplus > 0:
        verdict = "surplus"
    else:
        verdict = "deficit"
    return DegreeAudit(degs, total, codim, surplus, verdict)


def invariant_check(
    rep: Representation, poly: MultiPoly, name: str = "", ctx: CheckContext = CheckContext()
) -> ZeroCheck:
    """Check that a polynomial on V is an algebra invariant.

    The derivative of the polynomial along each basis vector field
    v -> x.v must vanish: exactly termwise, or at sampled points via
    dual-number evaluation along the field direction.
    """
    nv = rep.dim_v
    deg = poly.degree()

    def polys():
        table, vs = partials_table(poly), MultiPoly.variables(nv)
        for a in range(rep.algebra.dim):
            yield None, derivative_along(table, field_moves(rep.act_basis(a, vs)))

    def residual(v):
        for a in range(rep.algebra.dim):
            val = poly.evaluate(_dual_point(v, rep.act_basis(a, v)))
            d = val.b if isinstance(val, _Dual) else 0
            if d != 0:
                return (a, v, d)
        return None

    return identity_check(ctx, nv, deg, polys, ctx.draw(nv, "invariant", name), residual)
