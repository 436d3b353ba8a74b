"""Dense module constructions: the oracles for the sparse module builders.

``semicov.lie`` and ``catalog.support.MatrixPairModule`` write only the
nonzero entries of each action matrix.  The functions here build the dense
action matrices the textbook way, one Matrix per basis element of the
algebra: Kronecker products for the tensor product, block-diagonal matrices
for the direct sum, the negated transpose for the dual, the derivation
action scanned over every row index for symmetric and exterior powers, and
the slot action applied to every unit vector of V, and a subrepresentation
solved one image at a time.  Tests compare them with
``Representation.action``.

``matrix_pair_rows`` is the slot-module build that ``MatrixPairModule``
replaced by one bilinear evaluation: one call of ``fields`` per basis
element, on the slots of the coordinate variables, each image entry read
as a linear form in them.  ``rows_of`` gives the nonzero rows of dense
matrices, as ``Representation.nonzero_rows`` holds them.

``fixed_slice_rank`` is the density rank of the fixed-point slice
certificate computed the long way, with sympy over QQ and without
``semicov.linalg``: t = g_v1 and V^t as nullspaces, then the rank of the
orbit map at v1 stacked over a basis of V^t.

``quotient_dim_estimate`` is the sampled estimator that
``catalog.support.quotient_dim_estimate`` replaced by a read of
``lie.stabiliser_sample`` and its fixed-point slice certificate: an exact
orbit-map rank at every one of the ``ctx.samples`` points of the same
stream, and dim V minus their maximum.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from semicov.catalog.support import MatrixPairModule
from semicov.lie import Representation
from semicov.linalg import Matrix, SpanSolver, block_diag, normalize_scalar, rank
from semicov.poly import CheckContext, MultiPoly


def kron(a: Matrix, b: Matrix) -> Matrix:
    """The Kronecker product: entry (i, j) of a times the block b."""
    out = Matrix.zeros(a.nrows * b.nrows, a.ncols * b.ncols)
    for i in range(a.nrows):
        for j in range(a.ncols):
            x = a.rows[i][j]
            if x == 0:
                continue
            for k in range(b.nrows):
                brow = b.rows[k]
                orow = out.rows[i * b.nrows + k]
                for l in range(b.ncols):
                    if brow[l] != 0:
                        orow[j * b.ncols + l] = x * brow[l]
    return out


def tensor(r1: Representation, r2: Representation) -> list[Matrix]:
    """rho_1 (x) 1 + 1 (x) rho_2 as sums of Kronecker products."""
    i1, i2 = Matrix.identity(r1.dim_v), Matrix.identity(r2.dim_v)
    return [kron(m1, i2) + kron(i1, m2) for m1, m2 in zip(r1.action, r2.action)]


def direct_sum(*reps: Representation) -> list[Matrix]:
    return [block_diag(list(blocks)) for blocks in zip(*(r.action for r in reps))]


def dual(r: Representation) -> list[Matrix]:
    return [-(m.transpose()) for m in r.action]


def power(r: Representation, d: int, skew: bool) -> list[Matrix]:
    """The derivation action on sorted index tuples, every row index j of
    rho scanned for each factor of each basis monomial or wedge."""
    pick = itertools.combinations if skew else itertools.combinations_with_replacement
    basis = list(pick(range(r.dim_v), d))
    index = {b: i for i, b in enumerate(basis)}
    mats = []
    for rho in r.action:
        m = Matrix.zeros(len(basis), len(basis))
        for col, mono in enumerate(basis):
            for k, ik in enumerate(mono):
                others = mono[:k] + mono[k + 1 :]
                for j in range(r.dim_v):
                    c = rho[j, ik]
                    if c == 0 or (skew and j in others):
                        continue
                    image = mono[:k] + (j,) + mono[k + 1 :]
                    # a wedge changes sign with each inversion the sort removes
                    inversions = sum(image[p] > image[q] for p in range(d) for q in range(p + 1, d))
                    sign = -1 if skew and inversions % 2 else 1
                    row = index[tuple(sorted(image))]
                    m.rows[row][col] = normalize_scalar(m.rows[row][col] + sign * c)
        mats.append(m)
    return mats


def matrix_pair_action(mod: MatrixPairModule, fields) -> list[Matrix]:
    """Column j of each action matrix is the slot action on the j-th unit
    vector of V, encoded back into coordinates."""
    units = [[int(i == j) for i in range(mod.dim_v)] for j in range(mod.dim_v)]
    return [
        Matrix.from_cols([mod.encode(fields(s, mod.decode(u))) for u in units])
        for s in mod.rep.algebra.basis
    ]


def matrix_pair_rows(mod: MatrixPairModule, fields) -> list:
    """The nonzero rows of each rho_a, one ``fields`` call per basis element:
    image entry i is sum_j rho_a[i, j] x_j, and one not linear in x raises."""
    slots = mod.decode(MultiPoly.variables(mod.dim_v))
    out = []
    for s in mod.rep.algebra.basis:
        rows = []
        for i, e in enumerate(mod.encode(fields(s, slots))):
            if isinstance(e, MultiPoly) and e.is_homogeneous(1):
                row = sorted((t.index(1), c) for t, c in e.terms.items())
            elif e == 0:
                row = []
            else:
                raise ValueError("fields must be linear in the slots; got image entry %s" % e)
            if row:
                rows.append((i, row))
        out.append(rows)
    return out


def rows_of(mats: list[Matrix]) -> list:
    """The nonzero rows (i, [(j, x), ...]) of each matrix, x != 0."""
    return [[(i, [(j, x) for j, x in enumerate(r) if x != 0]) for i, r in enumerate(m.rows) if any(x != 0 for x in r)]
            for m in mats]


def subrepresentation(r: Representation, vectors) -> list[Matrix]:
    """Column j of matrix a holds the coordinates of rho_a(vectors[j]), one
    ``SpanSolver.coords`` solve per image."""
    solver = SpanSolver(vectors)
    mats = []
    for a in range(r.algebra.dim):
        cols = [solver.coords(r.act_basis(a, v)) for v in vectors]
        if any(c is None for c in cols):
            raise ValueError("subspace is not invariant under basis element %d" % a)
        mats.append(Matrix.from_cols(cols))
    return mats


def fixed_slice_rank(rep: Representation, v1) -> int:
    """rank_QQ [rho_a v1 ; a basis of V^t], t = g_v1: dim V exactly when
    g.v1 + V^t = V, the density that ``lie.fixed_slice_is_dense`` proves."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    def dm(rows, ncols):
        # sparse: only the nonzero entries, each a QQ element
        cells = {i: {j: QQ(Fraction(x).numerator, Fraction(x).denominator) for j, x in enumerate(r) if x}
                 for i, r in enumerate(rows)}
        return DomainMatrix({i: r for i, r in cells.items() if r}, (len(rows), ncols), QQ)

    dv = rep.dim_v
    rho = [dm(m.rows, dv) for m in rep.action]
    point = dm([[x] for x in v1], 1)
    orbit = DomainMatrix.hstack(*(r * point for r in rho))  # dim V x dim g
    zero = dm([[0] * dv] * dv, dv)
    # rho(x) for each basis vector x of g_v1, stacked: its nullspace is V^t
    fixed = [sum((r * x for r, x in zip(rho, row) if x), zero) for row in orbit.nullspace().to_list()]
    # one row per basis vector of V^t (all of V when t = 0)
    slice_basis = DomainMatrix.vstack(*fixed).nullspace() if fixed else DomainMatrix.eye(dv, QQ)
    return DomainMatrix.vstack(orbit.transpose(), slice_basis).rank()


def quotient_dim_estimate(rep: Representation, ctx: CheckContext) -> int:
    """dim V minus the largest exact orbit-map rank over all ``ctx.samples``
    points of the ("quotient", label) stream."""
    draw = ctx.draw(rep.dim_v, "quotient", rep.label or "V")
    points = [draw() for _ in range(ctx.samples)]
    dg = rep.algebra.dim
    return rep.dim_v - max(rank(Matrix([rep.act_basis(a, v) for a in range(dg)])) for v in points)
