"""Constructions: group, module, covariant family, and expected values.

Each public ``*_construction`` function assembles one verified family:
the acting Lie algebra, the module in coordinates, the covariants in
Ker(φ), the expected numerology (dimensions, degrees, quotient degree),
and the family-specific extra checks and negative controls.

Every extra but ``weight_relations`` and ``span_sl2_module`` (exact: they
compute the sl_2-module structure of the ex5.1 span) runs through
``poly.identity_check``.  An ``identity_extra`` fails with ``(tag, (point,
value))`` exact or ``(tag, v, value)`` sampled, where the value named by
``tag`` (``(tag, (i, j))`` for a matrix entry) re-evaluates to ``value``.
The others give the witnesses of their ``covariants`` checks; the sampled
points of ``invariant_degrees`` (each invariant homogeneous of its degree)
fail with ``(name, v, "degree")``, and those of ``witness_plane`` with
``(alpha, beta, rank)``.

Every module but the adjoint and the cube is a ``support.MatrixPairModule``.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Sequence

from ..covariants import (
    Covariant,
    ZeroCheck,
    act_on_components,
    action_matrix_on_span,
    covariant_match_check,
    covariant_zero_check,
    family_rank,
    invariant_check,
    parameter_coefficients,
    weight_under,
)
from ..lie import (
    LieAlgebra,
    Representation,
    adjoint_rep,
    default_skew,
    defining,
    gl,
    lift_factor,
    product,
    sl,
    so,
    sp,
    tensor,
)
from ..linalg import (
    Matrix,
    adjugate,
    block_diag,
    char_poly,
    det,
    inverse,
    minor_skew,
    rank,
)
from ..poly import (CheckContext, MultiPoly, derivative_along, field_moves, identity_check,
                    partials_table)
from .support import (
    SKEW,
    SYM,
    MatrixPairModule,
    diag_block,
    left_right_fields,
    traceless_part,
)

__all__ = [
    "Expected",
    "Construction",
    "CheckContext",
    "ExtraCheck",
    "Control",
    "adjoint_construction",
    "cubic_construction",
    "tri_sl_construction",
    "quiver_construction",
    "sym_skewdual_construction",
    "sym_skew_construction",
    "sp_so_construction",
    "so_copies_construction",
]


@dataclass(frozen=True)
class Expected:
    """Frozen numerology a construction must reproduce."""

    dim_v: int
    rank: int  # l = dim of the generic stabiliser = family size
    quotient_degree: int  # q(V//G) = sum of basic invariant degrees
    degrees: tuple[int, ...]
    audit_verdict: str  # "equality" | "surplus"
    quotient_dim: int  # dim V//G


@dataclass(frozen=True)
class ExtraCheck:
    """A family-specific report row: ``run(ctx)`` decides it under the run's
    knobs.  Witness shapes are in the module docstring."""

    name: str
    run: Callable[[CheckContext], ZeroCheck]


@dataclass(frozen=True)
class Control:
    """A covariant expected to fail Ker(φ); exercised behind a flag."""

    name: str
    covariant: Covariant
    reason: str


@dataclass
class Construction:
    """One instantiation of a catalog family.  ``entries.build_construction``
    stamps ``entry_id`` and the resolved ``params``; a builder called
    directly leaves both empty.  The acting algebra is ``module.algebra``."""

    module: Representation
    family: list[Covariant]
    expected: Expected
    scope: list[int] | None = None  # equivariance scope; None = full algebra
    scope_label: str = "full"
    complement: list[int] | None = None  # directions where equivariance must fail
    complement_label: str = ""
    witness: list | None = None  # exact independence witness point
    extras: list[ExtraCheck] = field(default_factory=list)
    controls: list[Control] = field(default_factory=list)
    kernel_span: bool = False  # values should span the full stabiliser pointwise
    entry_id: str = ""
    params: dict = field(default_factory=dict)

    @property
    def algebra(self) -> LieAlgebra:
        return self.module.algebra


def _entries(values):
    """(tag, scalar or Matrix) pairs as scalars; entry (i, j) is (tag, (i, j))."""
    for tag, val in values:
        if isinstance(val, Matrix):
            for i, row in enumerate(val.rows):
                yield from (((tag, (i, j)), e) for j, e in enumerate(row))
        else:
            yield tag, val


def identity_extra(name: str, num_vars: int, degree: int, values) -> ExtraCheck:
    """The extra row ``name``: each value of ``values(coords)``, (tag, scalar
    or Matrix) pairs of degree at most ``degree`` in coordinates of any ring,
    vanishes on V.  Exact mode expands it at ``MultiPoly.variables``; sampled
    mode evaluates it at points of the ``("extra", name)`` stream."""

    def run(ctx: CheckContext) -> ZeroCheck:
        def expanded():
            for tag, e in _entries(values(MultiPoly.variables(num_vars))):
                yield tag, e if isinstance(e, MultiPoly) else MultiPoly.const(num_vars, e)

        def residual(v):
            return next(((tag, v, e) for tag, e in _entries(values(v)) if e != 0), None)

        return identity_check(
            ctx, num_vars, degree, expanded, ctx.draw(num_vars, "extra", name), residual
        )

    return ExtraCheck(name, run)


# -- adjoint family ----------------------------------------------------------


def adjoint_construction(n: int) -> Construction:
    """sl_n acting on itself; gradients of characteristic coefficients."""
    g = sl(n)
    rep = adjoint_rep(g)
    xs = MultiPoly.variables(g.dim)
    x_mat = Matrix.zeros(n, n)
    for a, b in enumerate(g.basis):
        x_mat = x_mat + b * xs[a]
    coeffs = char_poly(x_mat)
    gram = Matrix(
        [[(g.basis[a] * g.basis[b]).trace() for b in range(g.dim)] for a in range(g.dim)]
    )
    gram_inv = inverse(gram)
    units = [field_moves(e) for e in Matrix.identity(g.dim).rows]  # the fields e_a
    family = []
    for j in range(2, n + 1):
        table = partials_table(coeffs[j])  # built once, read along each e_a
        grad = [derivative_along(table, e) for e in units]
        comps = [sum((c * d for c, d in zip(row, grad)), MultiPoly.zero(g.dim))
                 for row in gram_inv.rows]
        family.append(Covariant(rep, components=comps, name="F%d" % (j - 1), degree=j - 1))
    expected = Expected(
        dim_v=n * n - 1,
        rank=n - 1,
        quotient_degree=(n * n + n - 2) // 2,  # invariant degrees 2..n
        degrees=tuple(range(1, n)),
        audit_verdict="equality",
        quotient_dim=n - 1,
    )
    return Construction(rep, family, expected, kernel_span=True)


# -- cubic family ------------------------------------------------------------

# Components of the three single-factor solutions G_t of the equivariance
# equations for (sl_2)^3 acting on the 2x2x2 coordinate cube, with the cube
# entry a[i][j][k] at coordinate 4i+2j+k and each sl_2 factor ordered
# (e, f, h).  phi(G_0) = phi(G_1) = phi(G_2), so the combination
# lam*G_0 + mu*G_1 + nu*G_2 lies in Ker(phi) iff lam + mu + nu = 0.


def _cube_vars():
    vs = MultiPoly.variables(8)
    return {(i, j, k): vs[4 * i + 2 * j + k] for i in (0, 1) for j in (0, 1) for k in (0, 1)}


def _cubic_factor_solutions():
    a = _cube_vars()
    return [
        (
            2 * (a[0, 0, 1] * a[0, 1, 0] - a[0, 0, 0] * a[0, 1, 1]),
            2 * (a[1, 0, 0] * a[1, 1, 1] - a[1, 0, 1] * a[1, 1, 0]),
            a[0, 1, 1] * a[1, 0, 0]
            - a[0, 1, 0] * a[1, 0, 1]
            - a[0, 0, 1] * a[1, 1, 0]
            + a[0, 0, 0] * a[1, 1, 1],
        ),
        (
            2 * (a[0, 0, 1] * a[1, 0, 0] - a[0, 0, 0] * a[1, 0, 1]),
            2 * (a[0, 1, 0] * a[1, 1, 1] - a[0, 1, 1] * a[1, 1, 0]),
            -a[0, 1, 1] * a[1, 0, 0]
            + a[0, 1, 0] * a[1, 0, 1]
            - a[0, 0, 1] * a[1, 1, 0]
            + a[0, 0, 0] * a[1, 1, 1],
        ),
        (
            2 * (a[0, 1, 0] * a[1, 0, 0] - a[0, 0, 0] * a[1, 1, 0]),
            2 * (a[0, 0, 1] * a[1, 1, 1] - a[0, 1, 1] * a[1, 0, 1]),
            -a[0, 1, 1] * a[1, 0, 0]
            - a[0, 1, 0] * a[1, 0, 1]
            + a[0, 0, 1] * a[1, 1, 0]
            + a[0, 0, 0] * a[1, 1, 1],
        ),
    ]


def cubic_combination(rep: Representation, lam, mu, nu, name: str) -> Covariant:
    """lam*G_0 + mu*G_1 + nu*G_2 over the 2x2x2 cube module."""
    sols = _cubic_factor_solutions()
    comps = [MultiPoly.zero(8) for _ in range(9)]
    for fac, coef in enumerate((lam, mu, nu)):
        if coef == 0:
            continue
        pe, pf, ph = sols[fac]
        comps[3 * fac + 0] = pe * coef
        comps[3 * fac + 1] = pf * coef
        comps[3 * fac + 2] = ph * coef
    return Covariant(rep, components=comps, name=name, degree=2)


def cubic_module() -> Representation:
    g3 = product(sl(2), sl(2), sl(2))
    lifts = [lift_factor(g3, i, defining(g3.factors[i].algebra)) for i in range(3)]
    return tensor(tensor(lifts[0], lifts[1]), lifts[2])


def cubic_construction() -> Construction:
    rep = cubic_module()
    f1 = cubic_combination(rep, 1, -1, 0, "F1")
    f2 = cubic_combination(rep, 0, 1, -1, "F2")
    control = cubic_combination(rep, 1, 1, 1, "F[1,1,1]")
    expected = Expected(
        dim_v=8,
        rank=2,
        quotient_degree=4,  # the single quartic invariant
        degrees=(2, 2),
        audit_verdict="equality",
        quotient_dim=1,
    )
    return Construction(
        rep,
        [f1, f2],
        expected,
        controls=[
            Control(
                name="kernel_phi_control_mixed",
                covariant=control,
                reason="coefficients (1,1,1) do not sum to zero",
            )
        ],
    )


# -- three-factor matrix pairs ------------------------------------------------


def _tri_algebra(n: int) -> LieAlgebra:
    return product(sl(n), sl(n), sl(2))


def _tri_fields(galg: LieAlgebra):
    """Action of sl_n x sl_n x sl_2 on pairs (A, B) of n x n matrices."""
    left_right = left_right_fields(galg)
    f2 = galg.factors[2]

    def fields(s: Matrix, mats: list[Matrix]) -> list[Matrix]:
        A, B = mats
        iA, iB = left_right(s, mats)
        s2 = diag_block(s, f2.block_offset, 2)
        # sl_2 factor: e.(A,B) = (B,0), f.(A,B) = (0,A), h.(A,B) = (A,-B)
        e, f_, h = s2.rows[0][1], s2.rows[1][0], s2.rows[0][0]
        if e != 0:
            iA = iA + B * e
        if f_ != 0:
            iB = iB + A * f_
        if h != 0:
            iA = iA + A * h
            iB = iB - B * h
        return [iA, iB]

    return fields


def _tri_lambda_covariants(mod, n: int) -> list[Covariant]:
    """Coefficient covariants of (A, B) -> (B(A+lam B)*, (A+lam B)*B)."""

    def formula(coords):
        lam = coords[-1]
        A, B = mod.decode(coords[:-1])
        adj = adjugate(A + B * lam)
        return block_diag([traceless_part(B * adj), traceless_part(adj * B), None], [n, n, 2])

    return parameter_coefficients(mod.rep, formula, name_fmt="F{k}", width=n)


def tri_sl_construction(n: int) -> Construction:
    if n == 2:
        # the quadratic case degenerates to the 2x2x2 cube family
        return cubic_construction()
    galg = _tri_algebra(n)
    mod = MatrixPairModule(galg, [(n, n), (n, n)], _tri_fields(galg), label="pairs(%d)" % n)
    rep = mod.rep
    widths = _tri_lambda_covariants(mod, n)
    family = widths[: n - 1]
    top = widths[n - 1]
    sl_scope = list(range(galg.factors[2].basis_offset))
    sl2_scope = list(galg.factor_basis_range(2))
    e_idx, f_idx, h_idx = sl2_scope[0], sl2_scope[1], sl2_scope[2]

    def companion_formula(coords):
        A, B = mod.decode(coords)
        adj = adjugate(B)
        return block_diag([traceless_part(A * adj), traceless_part(adj * A), None], [n, n, 2])

    companion = Covariant(rep, matrix_formula=companion_formula, name="swapped", degree=n)

    def unit(a: int) -> list:
        return [int(b == a) for b in range(galg.dim)]

    def weight_failure():
        w = weight_under(family[0], unit(h_idx))
        if w != 2 - n:
            return ("h-weight", str(w))
        bad = [str(p) for p in act_on_components(family[0], unit(f_idx)) if not p.is_zero()]
        return ("f-action", bad[0]) if bad else None

    def span_failure():
        r = family_rank(family)
        if r != n - 1:
            return ("span rank", r)
        weights = [2 - n + 2 * i for i in range(n - 1)]
        mats = {}
        for a in range(galg.dim):
            mats[a] = action_matrix_on_span(family, unit(a))
            if mats[a] is None:
                return ("unstable direction", a)
        h_mat = mats[h_idx]
        for i in range(n - 1):
            for j in range(n - 1):
                if h_mat.rows[i][j] != (weights[i] if i == j else 0):
                    return ("h-matrix", (i, j), str(h_mat.rows[i][j]))
        for name, idx, shift in (("e", e_idx, 2), ("f", f_idx, -2)):
            m = mats[idx]
            r = rank(m)
            if r != n - 2:
                return ("%s-rank" % name, r)
            for i in range(n - 1):
                for j in range(n - 1):
                    if m.rows[i][j] != 0 and weights[i] != weights[j] + shift:
                        return ("%s-ladder" % name, (i, j))
        return None

    def exact(witness) -> ZeroCheck:
        # the span's sl_2-module structure is computed whatever the mode: it
        # is not an identity on V that points could sample
        verdict = "proved_zero" if witness is None else "proved_nonzero"
        return ZeroCheck(verdict, "exact", witness=witness)

    expected = Expected(
        dim_v=2 * n * n,
        rank=n - 1,
        quotient_degree=n * (n + 1),
        degrees=(n,) * (n - 1),
        audit_verdict="equality",
        quotient_dim=n - 2,
    )
    return Construction(
        rep,
        family,
        expected,
        scope=sl_scope,
        scope_label="sl_n x sl_n",
        complement=sl2_scope,
        complement_label="sl_2",
        extras=[
            ExtraCheck("vanishing_top_coefficient", lambda ctx: covariant_zero_check(top, ctx)),
            ExtraCheck(
                "companion_identity",
                lambda ctx: covariant_match_check(companion, family[n - 2], Fraction(-1), ctx),
            ),
            ExtraCheck("weight_relations", lambda ctx: exact(weight_failure())),
            ExtraCheck("span_sl2_module", lambda ctx: exact(span_failure())),
        ],
    )


# -- cyclic quiver -------------------------------------------------------------


def _quiver_algebra(n: int, k: int, variant: str) -> LieAlgebra:
    if variant == "gl":
        return product(*[gl(n) for _ in range(k)], name="gl(%d)^%d" % (n, k))
    mats = list(product(*[sl(n)] * k).basis)
    for i in range(k - 1):
        # the centre: 1 on block i, -1 on block i + 1
        mats.append(Matrix.diagonal([int(j // n == i) - int(j // n == i + 1) for j in range(n * k)]))
    return LieAlgebra.from_matrices("s(gl(%d)^%d)" % (n, k), mats)


def _quiver_module(galg: LieAlgebra, n: int, k: int) -> MatrixPairModule:
    """k slots of n x n matrices, M_i on the arc i -> i+1: L_i M_i - M_i L_(i+1)."""

    def fields(s: Matrix, mats: list[Matrix]) -> list[Matrix]:
        blocks = [diag_block(s, i * n, n) for i in range(k)]
        return [blocks[i] * M - M * blocks[(i + 1) % k] for i, M in enumerate(mats)]

    return MatrixPairModule(galg, [(n, n)] * k, fields, label="cyclic(%d;%d)" % (n, k))


def quiver_cycle_matrix(blocks: Sequence[Matrix]) -> Matrix:
    """The nk x nk matrix with block (i, i+1 mod k) equal to blocks[i] = M_i."""
    k, n = len(blocks), blocks[0].nrows
    big = Matrix.zeros(n * k, n * k)
    for i, m in enumerate(blocks):
        col = (i + 1) % k * n
        for r, row in enumerate(m.rows):
            big.rows[i * n + r][col : col + n] = row
    return big


def _quiver_power_formula(mod: MatrixPairModule, k: int, i: int, variant: str):
    def formula(coords):
        p = quiver_cycle_matrix(mod.decode(coords)) ** (k * i)
        return traceless_part(p) if variant == "sl" else p

    return formula


def quiver_witness_plane(n: int, k: int, alpha, beta) -> list[Matrix]:
    """The slots alpha*(I,..,I,diag(1..n)) + beta*(I,..,E,I), E regular nilpotent."""
    first = [Matrix.identity(n) for _ in range(k)]
    first[k - 1] = Matrix.diagonal([Fraction(j + 1) for j in range(n)])
    second = [Matrix.identity(n) for _ in range(k)]
    second[k - 2] = Matrix([[int(j == i + 1) for j in range(n)] for i in range(n)])
    return [m1 * alpha + m2 * beta for m1, m2 in zip(first, second)]


def quiver_construction(n: int, k: int, variant: str = "sl") -> Construction:
    if variant not in ("sl", "gl"):
        raise ValueError("variant must be sl or gl")
    galg = _quiver_algebra(n, k, variant)
    mod = _quiver_module(galg, n, k)
    rep = mod.rep
    low = 0 if variant == "gl" else 1
    family = [
        Covariant(
            rep,
            matrix_formula=_quiver_power_formula(mod, k, i, variant),
            name="F%d" % i,
            degree=k * i,
        )
        for i in range(low, n)
    ]

    def cycle_products(blocks, arcs=range(k)) -> list[Matrix]:
        """M_i M_(i+1) ... M_(i-1), the product around the cycle from each arc i."""
        out = []
        for i in arcs:
            prod = blocks[i]
            for step in range(1, k):
                prod = prod * blocks[(i + step) % k]
            out.append(prod)
        return out

    sigma = char_poly(cycle_products(mod.decode(MultiPoly.variables(rep.dim_v)), [0])[0])
    invariants = [("sigma%d" % j, sigma[j], j * k) for j in range(1, n + 1)]

    def block_powers(coords):
        # the k-th power of the cycle matrix is block diagonal, with the
        # cycle products on the diagonal
        blocks = mod.decode(coords)
        power = quiver_cycle_matrix(blocks) ** k
        want = cycle_products(blocks)
        for bi in range(k):
            for bj in range(k):
                blk = Matrix([r[bj * n : bj * n + n] for r in power.rows[bi * n : bi * n + n]])
                yield "block(%d,%d)" % (bi, bj), blk - want[bi] if bi == bj else blk

    def check_invariants(ctx: CheckContext) -> ZeroCheck:
        for name, poly, _ in invariants:
            res = invariant_check(rep, poly, name, ctx)
            if res.verdict == "proved_nonzero":
                return res

        def degree_defect(v):
            # each invariant is homogeneous of its degree: p(2v) = 2^d p(v)
            for name, poly, degree in invariants:
                if poly.evaluate([2 * x for x in v]) != 2**degree * poly.evaluate(v):
                    return (name, v, "degree")
            return None

        draw = ctx.draw(rep.dim_v, "extra", "invariant_degrees")
        return identity_check(ctx, rep.dim_v, None, None, draw, degree_defect)

    def check_plane(ctx: CheckContext) -> ZeroCheck:
        rng = ctx.rng("witness-plane")
        top = ctx.bound * 5

        def draw():
            return Fraction(rng.randint(1, top)), Fraction(rng.randint(1, top))

        def rank_defect(point):
            # 1, P, ..., P^(n-1) must be independent for the cycle product P
            alpha, beta = point
            prod = cycle_products(quiver_witness_plane(n, k, alpha, beta), [0])[0]
            powers = [Matrix.identity(n)]
            for _i in range(n - 1):
                powers.append(powers[-1] * prod)
            r = rank(Matrix.from_cols([p.vec() for p in powers]))
            return None if r == n else (str(alpha), str(beta), r)

        # a sampled-only check on the plane: there is no exact form to expand.
        # It keeps 10 points whatever ctx.samples says, as the frozen reports do
        return identity_check(replace(ctx, samples=10), 2, None, None, draw, rank_defect)

    degrees = tuple(k * i for i in range(low, n))
    expected = Expected(
        dim_v=k * n * n,
        rank=n if variant == "gl" else n - 1,
        quotient_degree=k * n * (n + 1) // 2,
        degrees=degrees,
        audit_verdict="equality",
        quotient_dim=n,
    )
    return Construction(
        rep,
        family,
        expected,
        extras=[
            identity_extra("block_power_structure", rep.dim_v, k, block_powers),
            ExtraCheck("invariant_degrees", check_invariants),
            ExtraCheck("witness_plane", check_plane),
        ],
    )


# -- symmetric times dual-skew pairs ------------------------------------------


def sym_skewdual_construction(n: int) -> Construction:
    """sl_n on (symmetric A, skew B) with B transforming in the dual."""
    g = sl(n)

    def fields(s: Matrix, mats: list[Matrix]) -> list[Matrix]:
        A, B = mats
        return [s * A + A * s.transpose(), -(s.transpose() * B) - B * s]

    mod = MatrixPairModule(g, [(SYM, n), (SKEW, n)], fields, label="sym+skew*(%d)" % n)
    rep = mod.rep
    k = n // 2

    def power_formula(i: int):
        def formula(coords):
            A, B = mod.decode(coords)
            return (A * B) ** (2 * i - 1)

        return formula

    family = [
        Covariant(rep, matrix_formula=power_formula(i), name="F%d" % i, degree=2 * (2 * i - 1))
        for i in range(1, k + 1)
    ]

    def traces(coords):
        A, B = mod.decode(coords)
        odd = A * B  # (AB)^(2i-3) at step i
        yield "tr (AB)^1", odd.trace()
        square = odd * odd if k > 1 else None
        for i in range(2, k + 1):
            yield "tr (AB)^%d" % (2 * i - 1), odd.trace_product(square)
            if i < k:
                odd = odd * square

    d_block = Matrix.identity(k)
    c_block = Matrix.diagonal([Fraction(j + 1) for j in range(k)])
    A_w = Matrix.zeros(n, n)
    B_w = Matrix.zeros(n, n)
    for r in range(k):
        for c in range(k):
            A_w.rows[r][k + c] = d_block.rows[r][c]
            A_w.rows[k + r][c] = d_block.rows[c][r]
            B_w.rows[r][k + c] = c_block.rows[r][c]
            B_w.rows[k + r][c] = -c_block.rows[c][r]
    if n % 2:
        A_w.rows[n - 1][n - 1] = Fraction(1)
    witness = mod.encode([A_w, B_w])

    if n % 2:
        q_quot = 2 * k * k + 4 * k + 1
        verdict = "equality"
    else:
        q_quot = 2 * k * k + k
        verdict = "surplus"
    expected = Expected(
        dim_v=n * n,
        rank=k,
        quotient_degree=q_quot,
        degrees=tuple(2 * (2 * i - 1) for i in range(1, k + 1)),
        audit_verdict=verdict,
        quotient_dim=k + 1,
    )
    trace_zero = identity_extra("trace_zero", mod.dim_v, 2 * (2 * k - 1), traces)
    return Construction(rep, family, expected, witness=witness, extras=[trace_zero])


# -- symmetric times skew pairs ------------------------------------------------


def sym_skew_construction(n: int) -> Construction:
    """sl_n on (symmetric A, skew B), both in the same polarity."""
    g = sl(n)

    def fields(s: Matrix, mats: list[Matrix]) -> list[Matrix]:
        return [s * M + M * s.transpose() for M in mats]

    shapes = [(SYM, n), (SKEW, n)]
    mod = MatrixPairModule(g, shapes, fields, label="sym+skew(%d)" % n)
    rep = mod.rep
    gl_mod = MatrixPairModule(gl(n), shapes, fields, label="sym+skew-gl(%d)" % n)

    def lam_formula(coords):
        lam = coords[-1]
        A, B = gl_mod.decode(coords[:-1])
        return B * adjugate(A + B * lam)

    widths = parameter_coefficients(gl_mod.rep, lam_formula, name_fmt="H{k}", width=n)
    k = n // 2
    family = []
    for i in range(k):
        comps = widths[2 * i].components  # gl_n coordinates: the entries, row by row
        coords_sl = g.coords(Matrix([comps[r * n : (r + 1) * n] for r in range(n)]))
        if coords_sl is None:
            raise ValueError("even coefficient H%d is not traceless" % (2 * i))
        family.append(Covariant(rep, components=coords_sl, name="H%d" % (2 * i)))

    def det_odd_part(coords):
        # the part of det(A + B) of B-degree j is the lambda^j coefficient of
        # det(A + lambda B), so this is zero iff every odd coefficient is
        A, B = gl_mod.decode(coords)
        yield "det(A+B) - det(A-B)", det(A + B) - det(A - B)

    extras = [identity_extra("det_even", mod.dim_v, n, det_odd_part)]
    if n % 2:
        top = widths[n - 1]
        extras.append(
            ExtraCheck("vanishing_top_coefficient", lambda ctx: covariant_zero_check(top, ctx))
        )

    controls = []
    if n >= 3:
        controls.append(
            Control(
                name="kernel_phi_control_odd",
                covariant=widths[1],
                reason="odd coefficients fall outside Ker(phi)",
            )
        )

    if n % 2:
        q_quot = n * n - (2 * k * k + k)
        verdict = "equality"
    else:
        q_quot = 2 * k * k + k
        verdict = "surplus"
    expected = Expected(
        dim_v=n * n,
        rank=k,
        quotient_degree=q_quot,
        degrees=(n,) * k,
        audit_verdict=verdict,
        quotient_dim=k + 1,
    )
    return Construction(rep, family, expected, extras=extras, controls=controls)


# -- symplectic times orthogonal rectangles ------------------------------------


def sp_so_construction(m: int, case: str = "i") -> Construction:
    """sp_2m x so_n on 2m x n matrices, n = 2m, 2m+1 or 2m+2 by case."""
    if case not in ("i", "ii", "iii"):
        raise ValueError("case must be i, ii or iii")
    n = {"i": 2 * m, "ii": 2 * m + 1, "iii": 2 * m + 2}[case]
    galg = product(sp(2 * m), so(n))
    jmat = default_skew(2 * m)

    label = "sp-so(%d;%s)" % (m, case)
    mod = MatrixPairModule(galg, [(2 * m, n)], left_right_fields(galg), label=label)
    rep = mod.rep

    def power_formula(i: int):
        def formula(coords):
            M = mod.decode(coords)[0]
            x = (M * M.transpose() * jmat) ** (2 * i - 1)
            y = (M.transpose() * jmat * M) ** (2 * i - 1)
            return block_diag([x, y])

        return formula

    family = [
        Covariant(rep, matrix_formula=power_formula(i), name="F%d" % i, degree=2 * (2 * i - 1))
        for i in range(1, m + 1)
    ]
    degrees = [2 * (2 * i - 1) for i in range(1, m + 1)]
    if case == "iii":

        def minor_formula(coords):
            M = mod.decode(coords)[0]
            return block_diag([None, minor_skew(M)], [2 * m, n])

        family.append(Covariant(rep, matrix_formula=minor_formula, name="Fmin", degree=2 * m))
        degrees.append(2 * m)

    def forms(coords):
        M = mod.decode(coords)[0]
        x = M * M.transpose() * jmat
        y = M.transpose() * jmat * M
        yield "sp-form", x.transpose() * jmat + jmat * x
        yield "so-form", y.transpose() + y

    def minor_skewness(coords):
        a = minor_skew(mod.decode(coords)[0])
        yield "minor-skew", a.transpose() + a

    def minor_identity(coords):
        M = mod.decode(coords)[0]
        yield "M.A_M", M * minor_skew(M)

    extras = [identity_extra("form_conditions", mod.dim_v, 2, forms)]
    if case == "iii":
        extras.append(identity_extra("minor_covariant", mod.dim_v, 2 * m, minor_skewness))
        extras.append(identity_extra("minor_identity", mod.dim_v, 2 * m + 1, minor_identity))

    rank = m + 1 if case == "iii" else m
    q_quot = 2 * m * m if case == "i" else 2 * m * (m + 1)
    expected = Expected(
        dim_v=2 * m * n,
        rank=rank,
        quotient_degree=q_quot,
        degrees=tuple(degrees),
        audit_verdict="equality",
        quotient_dim=m,
    )
    return Construction(rep, family, expected, extras=extras)


# -- orthogonal algebra on column copies ----------------------------------------


def so_copies_construction(n: int) -> Construction:
    """so_{n+2} on n copies of the defining column space."""
    galg = so(n + 2)

    def fields(s: Matrix, mats: list[Matrix]) -> list[Matrix]:
        return [s * mats[0]]

    mod = MatrixPairModule(galg, [(n + 2, n)], fields, label="columns(%d)" % n)
    rep = mod.rep

    def formula(coords):
        return minor_skew(mod.decode(coords)[0].transpose())

    family = [Covariant(rep, matrix_formula=formula, name="F", degree=n)]

    def minor_identity(coords):
        M = mod.decode(coords)[0]
        yield "A_M.M", minor_skew(M.transpose()) * M

    expected = Expected(
        dim_v=n * (n + 2),
        rank=1,
        quotient_degree=n * (n + 1),
        degrees=(n,),
        audit_verdict="equality",
        quotient_dim=n * (n + 1) // 2,
    )
    extras = [identity_extra("minor_identity", mod.dim_v, n + 1, minor_identity)]
    return Construction(rep, family, expected, extras=extras)
