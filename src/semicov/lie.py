"""Finite-dimensional Lie algebras and their representations, exactly.

Algebras carry sparse structure constants over the rationals, plus (when
available) a faithful matrix realisation used to build modules.  Classical
families gl, sl, so, sp come from explicit matrix conditions, built once per
size and process and shared, so no caller may mutate them; so and sp accept
a user-chosen invariant form, never memoised.  ``coords`` is the one map
from g's matrix realisation to its basis coordinates.  Products keep factor
index bookkeeping so projections to factors stay exact.  ``generating_subset``
certifies, by exact bracket closure and with no cache, a set of basis
elements that generates the subalgebra they span, trying the algebra's seeds
first (on sl_n the n root vectors E_(i,i+1) and E_(n,1), which a product
keeps per factor).
A representation stores only the sorted nonzero rows of its action
matrices; each builder writes them directly, a derived module from its operand's.
``stabiliser_sample``, the one sampler of generic stabilisers (entries and
table rows), proves t = g_v1 generic by ``fixed_slice_is_dense`` at v1
itself (one exact rank of rho(t), one modular rank, on the orbit columns
that gave t) and draws the other points only when read.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .linalg import (
    Matrix,
    SpanSolver,
    block_diag,
    int_rows,
    nonzeros,
    normalize_scalar,
    product_rank_mod_p,
    rank,
    rank_and_kernel,
    solve_all,
    sparse_dot,
)
from .poly import CheckContext


def default_skew(n: int) -> Matrix:
    """The default symplectic form [[0, I], [-I, 0]] (so's is the identity)."""
    if n % 2:
        raise ValueError("symplectic form needs even size")
    m = n // 2
    out = Matrix.zeros(n, n)
    for i in range(m):
        out.rows[i][m + i] = 1
        out.rows[m + i][i] = -1
    return out


@dataclass
class Factor:
    name: str
    algebra: "LieAlgebra"
    basis_offset: int
    block_offset: int


class LieAlgebra:
    """Lie algebra given by structure constants on a fixed basis.

    ``brackets`` maps (a, b) with a < b to the sparse coordinates of
    [e_a, e_b]; missing keys mean zero.  ``bracket_basis`` reads a table of
    both orientations built at construction, so ``brackets`` must not be
    mutated afterwards: build a new algebra instead.
    """

    def __init__(
        self,
        name: str,
        dim: int,
        brackets: dict,
        basis: list[Matrix] | None = None,
        matrix_size: int | None = None,
        factors: list[Factor] | None = None,
        seeds: Sequence[int] = (),
    ):
        self.name = name
        self.dim = dim
        self.brackets = brackets
        self._table = dict(brackets)
        for (a, b), entry in brackets.items():
            self._table[(b, a)] = {c: -v for c, v in entry.items()}
        self.basis = basis
        self.matrix_size = matrix_size
        self.factors = factors or []
        self.seeds = tuple(seeds)  # indices that generating_subset tries first
        self._solver: SpanSolver | None = None  # coords, built on first use

    def __repr__(self):
        return "LieAlgebra(%s, dim=%d)" % (self.name, self.dim)

    @staticmethod
    def from_matrices(name: str, mats: Sequence[Matrix]) -> "LieAlgebra":
        """Structure constants computed from a matrix basis (must be closed)."""
        mats = list(mats)
        dim = len(mats)
        size = mats[0].nrows if mats else 0
        solver = SpanSolver([m.vec() for m in mats]) if mats else None
        # nonzero entries of each basis matrix, by row and as (i, j, value)
        by_row = [dict(_matrix_rows(m)) for m in mats]
        entries = [[(i, j, x) for i, r in rows.items() for j, x in r] for rows in by_row]
        brackets: dict = {}
        for a in range(dim):
            for b in range(a + 1, dim):
                comm = [0] * (size * size)
                for left, right, sign in ((a, b, 1), (b, a, -1)):
                    for i, j, x in entries[left]:
                        for k, y in by_row[right].get(j, ()):
                            comm[i * size + k] += sign * x * y
                coords = solver.coords(comm)
                if coords is None:
                    raise ValueError("matrix basis is not closed under commutator")
                entry = {c: v for c, v in enumerate(coords) if v != 0}
                if entry:
                    brackets[(a, b)] = entry
        g = LieAlgebra(name, dim, brackets, basis=mats, matrix_size=size)
        g._solver = solver
        return g

    def coords(self, m: Matrix) -> list | None:
        """The matrix m in g's basis coordinates, or None when m is outside g.

        Entries of m may lie in any ring (polynomials, dual numbers); the
        coordinates then lie in the same ring.
        """
        if self._solver is None:
            if self.basis is None:
                raise ValueError("algebra has no matrix realisation")
            self._solver = SpanSolver([b.vec() for b in self.basis])
        return self._solver.coords(m.vec())

    def bracket_basis(self, a: int, b: int) -> dict:
        """[e_a, e_b] as a sparse coordinate dict (shared: do not mutate)."""
        return self._table.get((a, b), {})

    def bracket_coords(self, x: Sequence, y: Sequence) -> list:
        """[x, y] for coordinate vectors x, y."""
        out = [0] * self.dim
        nz_y = nonzeros(y)
        for a, xa in nonzeros(x):
            for b, yb in nz_y:
                entry = self.bracket_basis(a, b)
                for c, v in entry.items():
                    out[c] = out[c] + (xa * v) * yb
        return [normalize_scalar(v) for v in out]

    def generating_subset(self, indices: Sequence[int]) -> tuple | None:
        """A subset of ``indices``, in their order, whose basis elements
        generate span(e_a : a in indices) as a Lie algebra; None when that
        span is not a subalgebra.

        Greedy and exact, over the ``seeds`` among ``indices`` first and
        then the other indices in order: e_a becomes a generator when it is
        not yet in the closure, which then grows under ad(e_s) of every
        chosen generator until it is stable (the subalgebra a set generates
        is the least subspace holding it that ad of its members preserves).
        The seeds of sl_n, E_(i,i+1) and E_(n,1), generate it alone.  Each
        generator comes once; the empty scope gives ``()``.
        """
        indices = tuple(dict.fromkeys(indices))
        inside = set(indices)
        seeds = [a for a in self.seeds if a in inside]
        rows: list = []  # the closure: (pivot, sparse row with 1 there), in echelon order
        gens: list = []

        def grow(vec: dict) -> bool:
            # reduce vec against the closure; a nonzero remainder joins it
            for p, row in rows:
                c = vec.get(p, 0)
                if c:
                    for j, r in row.items():
                        vec[j] = vec.get(j, 0) - c * r
            vec = {j: x for j, x in vec.items() if x != 0}
            if vec:
                p = min(vec)
                rows.append((p, {j: Fraction(x) / vec[p] for j, x in vec.items()}))
            return bool(vec)

        for a in seeds + [a for a in indices if a not in seeds]:
            if not grow({a: 1}):
                continue
            gens.append(a)
            work = [(a, w) for _, w in rows[:-1]] + [(s, rows[-1][1]) for s in gens]
            while work:
                s, w = work.pop()
                br: dict = {}
                for b, x in w.items():
                    for c, v in self.bracket_basis(s, b).items():
                        br[c] = br.get(c, 0) + x * v
                if any(x != 0 and c not in inside for c, x in br.items()):
                    return None
                if grow(br):
                    work.extend((t, rows[-1][1]) for t in gens)
            if len(rows) == len(indices):
                break
        return tuple(a for a in indices if a in gens)

    def check_jacobi(self):
        """Exact Jacobi identity on the basis triples a < b < c (the others
        follow by antisymmetry).  Returns (ok, first failing triple).

        The longest tail I = span(e_m, ..., e_(n-1)) that the table shows to
        be an abelian ideal (V* in q = g x V*) splits the scan.  A triple with
        two indices in I vanishes term by term and is skipped.  For a < b < m
        the triples (a, b, c), c in I, are together the sparse identity
        [ad_a, ad_b] = ad_[a,b] on I, and its least failing column c names the
        triple.  Each pair's triples with c < m run first, so the witness is
        the first failing triple of the full scan, which is what runs when no
        tail is an abelian ideal (m = n).
        """
        n, m = self.dim, self._abelian_tail()
        get, none = self._table.get, {}
        # ad_a on I for a < m: {c: [e_a, e_c]}
        ad = [{c: get((a, c)) for c in range(m, n) if (a, c) in self._table} for a in range(m)]

        def jac(a, b, c):
            # [e_a, [e_b, e_c]] + cyclic, composed from the sparse brackets
            total: dict = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for d, s in get((y, z), none).items():
                    for e, t in get((x, d), none).items():
                        total[e] = total.get(e, 0) + s * t
            return all(v == 0 for v in total.values())

        def jac_on_ideal(a, b):
            # the first c in I with ([ad_a, ad_b] - ad_[a,b]) e_c != 0, the
            # entries keyed c * n + e; I's part of [a, b] acts on I as 0
            total: dict = {}
            for x, y, sign in ((a, b, 1), (b, a, -1)):
                for c, col in ad[y].items():
                    for d, s in col.items():
                        for e, t in ad[x].get(d, none).items():
                            k = c * n + e
                            total[k] = total.get(k, 0) + sign * s * t
            for d, s in get((a, b), none).items():
                for c, col in ad[d].items() if d < m else ():
                    for e, t in col.items():
                        k = c * n + e
                        total[k] = total.get(k, 0) - s * t
            bad = [k for k, v in total.items() if v != 0]
            return min(bad) // n if bad else None

        for a in range(m):
            for b in range(a + 1, m):
                for c in range(b + 1, m):
                    if not jac(a, b, c):
                        return False, (a, b, c)
                c = jac_on_ideal(a, b)
                if c is not None:
                    return False, (a, b, c)
        return True, None

    def _abelian_tail(self) -> int:
        """The least m for which e_m, ..., e_(n-1) span an abelian ideal, read
        from the bracket table (n when no nonempty tail does)."""
        m = 1 + max((a for a, _ in self.brackets), default=-1)
        while True:
            # [e_a, e_b] with b in the tail must lie in it; else the tail starts past b
            out = [b for (a, b), entry in self.brackets.items() if b >= m and any(c < m for c in entry)]
            if not out:
                return m
            m = max(out) + 1

    def factor_basis_range(self, idx: int) -> range:
        f = self.factors[idx]
        return range(f.basis_offset, f.basis_offset + f.algebra.dim)


def _matrix_rows(m: Matrix) -> list:
    """The nonzero rows of m, as ``Representation`` stores them."""
    return [(i, nz) for i, nz in enumerate(map(nonzeros, m.rows)) if nz]


def _by_row(cells) -> list:
    """Sorted rows of nonzero (i, j, x) cells, ascending j for each i."""
    rows: dict = {}
    for i, j, x in cells:
        rows.setdefault(i, []).append((j, x))
    return sorted(rows.items())


@functools.cache
def gl(n: int) -> LieAlgebra:
    mats = [Matrix.unit(n, n, i, j) for i in range(n) for j in range(n)]
    return LieAlgebra.from_matrices("gl%d" % n, mats)


@functools.cache
def sl(n: int) -> LieAlgebra:
    mats = [Matrix.unit(n, n, i, j) for i in range(n) for j in range(n) if i != j]
    for i in range(n - 1):
        h = Matrix.zeros(n, n)
        h.rows[i][i] = 1
        h.rows[i + 1][i + 1] = -1
        mats.append(h)
    g = LieAlgebra.from_matrices("sl%d" % n, mats)
    g.seeds = tuple(range(0, n * n - n, n)) + ((n - 1) ** 2,)  # E_(i,i+1), E_(n,1)
    return g


def _form_algebra(n: int, form: Matrix, sign: int) -> LieAlgebra:
    """{X : X^t F + F X = 0} for a nondegenerate form with F^t = sign F:
    so_n for sign 1, sp_n for sign -1.  Its basis is an exact kernel."""
    so_n = sign == 1
    kind, family = ("so", "orthogonal") if so_n else ("sp", "symplectic")
    if form.transpose() != form * sign:
        raise ValueError("%s form must be %s" % (family, "symmetric" if so_n else "skew-symmetric"))
    if rank(form) != n:
        raise ValueError("%s form must be nondegenerate" % family)
    rows = []
    for i in range(n):
        for j in range(n):
            # entry (i, j) of X^t F + F X as a linear functional of vec(X)
            coeffs = [0] * (n * n)
            for k in range(n):
                coeffs[k * n + i] = coeffs[k * n + i] + form[k, j]
                coeffs[k * n + j] = coeffs[k * n + j] + form[i, k]
            rows.append(coeffs)
    _, kern = rank_and_kernel(Matrix(rows))
    mats = [Matrix([[v[i * n + j] for j in range(n)] for i in range(n)]) for v in kern]
    g = LieAlgebra.from_matrices("%s%d" % (kind, n), mats)
    if g.dim != n * (n - sign) // 2:
        raise AssertionError("unexpected %s dimension" % kind)
    return g


@functools.cache
def _default_so(n: int) -> LieAlgebra:
    return _form_algebra(n, Matrix.identity(n), 1)


@functools.cache
def _default_sp(n: int) -> LieAlgebra:
    return _form_algebra(n, default_skew(n), -1)


def so(n: int, form: Matrix | None = None) -> LieAlgebra:
    """so_n of ``form``.  The identity form's algebra is built once per n and
    shared by every call; any other form builds a fresh algebra."""
    return _default_so(n) if form is None else _form_algebra(n, form, 1)


def sp(n: int, form: Matrix | None = None) -> LieAlgebra:
    """sp_n of ``form``.  The ``default_skew`` algebra is built once per n and
    shared by every call; any other form builds a fresh algebra."""
    if n % 2:
        raise ValueError("sp needs even size")
    return _default_sp(n) if form is None else _form_algebra(n, form, -1)


def product(*algebras: LieAlgebra, name: str | None = None) -> LieAlgebra:
    """Direct product with factor bookkeeping and block-diagonal matrices."""
    brackets: dict = {}
    factors: list[Factor] = []
    basis: list[Matrix] = []
    off = block = 0
    sizes = [g.matrix_size for g in algebras]
    for i, g in enumerate(algebras):
        factors.append(Factor(g.name, g, off, block))
        for (a, b), entry in g.brackets.items():
            brackets[(a + off, b + off)] = {c + off: v for c, v in entry.items()}
        slots = [None] * len(algebras)
        for m in g.basis:
            slots[i] = m
            basis.append(block_diag(slots, sizes))
        off += g.dim
        block += g.matrix_size
    pname = name or " x ".join(g.name for g in algebras)
    return LieAlgebra(pname, off, brackets, basis=basis, matrix_size=block, factors=factors,
                      seeds=[f.basis_offset + s for f in factors for s in f.algebra.seeds])


class Representation:
    """A module of ``algebra`` on V = Q^dim_v, stored sparsely.

    ``nonzero_rows[a]`` holds the nonzero rows of rho_a as (i, [(j, entry),
    ...]), rows and entries sorted by index, taken as given: modules may
    share rows, and nothing mutates them.  Every action on a vector reads
    them.  ``action`` is a dense view for tests and oracles, rebuilt on
    every access.
    """

    def __init__(self, algebra: LieAlgebra, nonzero_rows: Sequence, dim_v: int, label: str = ""):
        if len(nonzero_rows) != algebra.dim:
            raise ValueError("need one action matrix per basis element")
        self.algebra, self.dim_v, self.label = algebra, dim_v, label
        self.nonzero_rows = list(nonzero_rows)

    def __repr__(self):
        return "Representation(%s on %s, dim=%d)" % (self.label or "V", self.algebra.name, self.dim_v)

    @property
    def action(self) -> list[Matrix]:
        mats = [Matrix.zeros(self.dim_v, self.dim_v) for _ in self.nonzero_rows]
        for m, nz in zip(mats, self.nonzero_rows):
            for i, row in nz:
                for j, x in row:
                    m.rows[i][j] = x
        return mats

    def act_basis(self, a: int, v: Sequence) -> list:
        """rho_a(v), the same values as ``self.action[a].apply(v)``."""
        out = [0] * self.dim_v
        for i, row in self.nonzero_rows[a]:
            out[i] = sparse_dot(v, row)
        return out

    def act(self, x: Sequence, v: Sequence) -> list:
        out = [0] * self.dim_v
        for a, xa in nonzeros(x):
            for i, row in self.nonzero_rows[a]:
                out[i] = out[i] + xa * sparse_dot(v, row)
        return [normalize_scalar(o) for o in out]


def defining(g: LieAlgebra) -> Representation:
    """The matrix realisation itself, acting on column coordinates."""
    if g.basis is None:
        raise ValueError("algebra has no matrix realisation")
    return Representation(g, [_matrix_rows(m) for m in g.basis], g.matrix_size, label="defining(%s)" % g.name)


def adjoint_rep(g: LieAlgebra) -> Representation:
    """ad(e_a) e_b = [e_a, e_b], read from the bracket table."""
    n = g.dim
    rows = [_by_row((c, b, v) for b in range(n) for c, v in g.bracket_basis(a, b).items() if v != 0)
            for a in range(n)]
    return Representation(g, rows, n, label="ad(%s)" % g.name)


def dual(r: Representation) -> Representation:
    """rho*_a = -rho_a^t."""
    rows = [_by_row((j, i, -x) for i, row in nz for j, x in row) for nz in r.nonzero_rows]
    return Representation(r.algebra, rows, r.dim_v, label="dual(%s)" % (r.label or "V"))


def direct_sum(*reps: Representation) -> Representation:
    alg = reps[0].algebra
    if any(r.algebra is not alg for r in reps):
        raise ValueError("direct sum needs modules over one algebra")
    offsets = list(itertools.accumulate((r.dim_v for r in reps), initial=0))
    rows = [[(o + i, [(o + j, x) for j, x in row] if o else row) for r, o in zip(reps, offsets)
             for i, row in r.nonzero_rows[a]] for a in range(alg.dim)]
    label = " + ".join(r.label or "V" for r in reps)
    return Representation(alg, rows, offsets[-1], label=label)


def tensor(r1: Representation, r2: Representation) -> Representation:
    """rho_1 (x) 1 + 1 (x) rho_2 on the basis e_i (x) f_k, index i * dim r2 + k."""
    if r1.algebra is not r2.algebra:
        raise ValueError("tensor product needs modules over one algebra")
    n1, n2 = r1.dim_v, r2.dim_v
    rows = []
    for nz1, nz2 in zip(r1.nonzero_rows, r2.nonzero_rows):
        m = {(i * n2 + k, j * n2 + k): x for i, row in nz1 for j, x in row for k in range(n2)}
        for k, row in nz2:
            for l, y in row:
                for i in range(n1):
                    ij = (i * n2 + k, i * n2 + l)
                    m[ij] = m[ij] + y if ij in m else y
        rows.append(_by_row((i, j, x) for (i, j), x in sorted(m.items()) if x != 0))
    label = "(%s)x(%s)" % (r1.label or "V", r2.label or "W")
    return Representation(r1.algebra, rows, n1 * n2, label=label)


def sym_power(r: Representation, d: int) -> Representation:
    """Symmetric power with monomial basis (derivation action)."""
    return _power(r, d, skew=False)


def ext_power(r: Representation, d: int) -> Representation:
    """Exterior power with wedge basis (derivation action with signs)."""
    return _power(r, d, skew=True)


def _power(r: Representation, d: int, skew: bool) -> Representation:
    """The derivation action on sorted index tuples: monomials, or wedges
    (no repeated index, and the sign of the sort)."""
    pick = itertools.combinations if skew else itertools.combinations_with_replacement
    basis = list(pick(range(r.dim_v), d))
    index = {b: i for i, b in enumerate(basis)}
    rows = []
    for nz in r.nonzero_rows:
        by_col = dict(_by_row((ik, j, c) for j, row in nz for ik, c in row))  # rho_a's columns
        m: dict = {}
        for col, mono in enumerate(basis):
            for k, ik in enumerate(mono):
                others = mono[:k] + mono[k + 1 :]
                for j, c in by_col.get(ik, ()):
                    if skew and j in others:
                        continue
                    # a wedge takes the sign of the sort: j moves past the
                    # entries strictly between its old and new positions
                    sign = -1 if skew and sum((o > j) != (o > ik) for o in others) % 2 else 1
                    ij = (index[tuple(sorted(mono[:k] + (j,) + mono[k + 1 :]))], col)
                    m[ij] = normalize_scalar(m.get(ij, 0) + sign * c)
        rows.append(_by_row((i, j, x) for (i, j), x in sorted(m.items()) if x != 0))
    label = "%s^%d(%s)" % ("L" if skew else "S", d, r.label or "V")
    return Representation(r.algebra, rows, len(basis), label=label)


def subrepresentation(r: Representation, vectors: Sequence[Sequence], label: str = "") -> Representation:
    """Restrict to an invariant subspace, in the coordinates of `vectors`.
    The images of every basis vector under every rho_a are solved for
    through one elimination."""
    k = len(vectors)
    images = [r.act_basis(a, v) for a in range(r.algebra.dim) for v in vectors]
    found, coords = solve_all(Matrix.from_cols(vectors), images)
    if found < k:
        raise ValueError("basis vectors are linearly dependent")
    if None in coords:
        raise ValueError("subspace is not invariant under basis element %d" % (coords.index(None) // k))
    rows = [_by_row((i, j, x) for j, col in enumerate(coords[a * k : (a + 1) * k]) for i, x in nonzeros(col))
            for a in range(r.algebra.dim)]
    return Representation(r.algebra, rows, k, label=label or "sub(%s)" % (r.label or "V"))


def lift_factor(prod: LieAlgebra, idx: int, rep: Representation) -> Representation:
    """Extend a module of one factor of a product by zero on the others."""
    f = prod.factors[idx]
    if rep.algebra.dim != f.algebra.dim:
        raise ValueError("module does not match the chosen factor")
    own = prod.factor_basis_range(idx)
    rows = [rep.nonzero_rows[a - f.basis_offset] if a in own else [] for a in range(prod.dim)]
    return Representation(prod, rows, rep.dim_v, label="%s@%s" % (rep.label or "V", f.name))


@dataclass
class Subspace:
    vectors: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @functools.cached_property
    def solver(self) -> SpanSolver:
        return SpanSolver(self.vectors)

    def contains(self, v: Sequence) -> bool:
        return self.solver.coords(v) is not None


def stabiliser(r: Representation, v: Sequence, orbit: list | None = None) -> Subspace:
    """Exact annihilator {x in g : x . v = 0}: the kernel of the orbit map's
    differential at v, whose columns rho_a(v) are ``orbit`` if given."""
    _, kern = rank_and_kernel(Matrix.from_cols(orbit or [r.act_basis(a, v) for a in range(r.algebra.dim)]))
    return Subspace(kern)


def fixed_slice_is_dense(r: Representation, orbit: list, t: Subspace) -> bool:
    """True when G.S is proved dense in V for S = V^t, t = g_v1, so that
    dim g_v >= dim t on all of V (every s in S has g_s containing t, and
    {v : dim g_v >= dim t} is closed and G-stable).  G.S is dense if the
    differential of G x S -> V at v1 in S, onto g.v1 + S, is onto V
    (Luna-Richardson, Duke Math. J. 46 (1979) 487-496).  With A = rho(x)
    stacked over a basis x of t, S = ker A, so that holds exactly when
    rank A M = rank A, M = [rho_a v1] = ``orbit``: rank A exact, rank A M mod
    p (a lower bound), A's rows and M's columns scaled to integers.  Premise: g
    acts as the Lie algebra of a connected algebraic group (every catalog module).
    """
    dg, dv = r.algebra.dim, r.dim_v
    if dg - t.dim == min(dg, dv):
        return True
    fixed = [[0] * dv for _ in range(t.dim * dv)]  # rho(x), x in t, stacked
    for k, x in enumerate(int_rows(t.vectors)[0]):
        for a, xa in enumerate(x):
            for i, row in r.nonzero_rows[a] if xa else ():
                for j, m in row:
                    fixed[k * dv + i][j] += xa * m
    fixed = [row for row in int_rows(fixed)[0] if any(row)]
    left = [nonzeros(row) for row in fixed]
    return product_rank_mod_p(left, list(zip(*int_rows(orbit)[0]))) == rank(Matrix(fixed))


@dataclass
class StabiliserSample:
    """``samples`` points of V from one stream and their exact stabilisers:
    v1 and t = g_v1 now, the other points (each a ``draw()``) and their
    stabilisers each once, when first read.  ``proved``: t has the least
    dimension on V.  Then, if t is abelian, so is every g_v of that
    dimension: on that open set of V, v -> g_v is a morphism to the
    Grassmannian, abelian planes form a closed set, and G.(S meet the set)
    is dense in it.
    """

    rep: Representation
    v1: list
    t: Subspace
    proved: bool = False
    samples: int = 1
    draw: Callable[[], list] | None = None

    @functools.cached_property
    def points(self) -> list:
        return [self.v1] + [self.draw() for _ in range(self.samples - 1)]

    @functools.cached_property
    def pairs(self) -> list:
        return [(self.v1, self.t)] + [(v, stabiliser(self.rep, v)) for v in self.points[1:]]

    @property
    def minimal(self) -> list:
        """The pairs of least stabiliser dimension, the generic one first;
        (v1, t) alone when ``proved``."""
        pairs = [(self.v1, self.t)] if self.proved else self.pairs
        least = min(s.dim for _, s in pairs)
        return [(v, s) for v, s in pairs if s.dim == least]

    @functools.cached_property
    def abelian(self) -> bool:
        """Whether the generic stabiliser is abelian: tested once, for every row."""
        return is_abelian(self.rep.algebra, self.minimal[0][1])


def stabiliser_sample(r: Representation, ctx: CheckContext, *labels) -> StabiliserSample:
    """The one sampler of a module's generic stabiliser: ``ctx.samples``
    integer points of V in [-ctx.bound, ctx.bound] from the stream of
    ``labels``, each after v1 drawn only when read, and t = g_v1, ``proved``
    when ``ctx.samples > 1`` and ``fixed_slice_is_dense``.
    """
    draw = ctx.draw(r.dim_v, *labels)
    v1 = draw()
    orbit = [r.act_basis(a, v1) for a in range(r.algebra.dim)]
    t = stabiliser(r, v1, orbit)
    proved = ctx.samples > 1 and fixed_slice_is_dense(r, orbit, t)
    return StabiliserSample(r, v1, t, proved, ctx.samples, draw)


def is_abelian(g: LieAlgebra, s: Subspace) -> bool:
    """True when the subspace is an abelian subalgebra; raises ValueError if
    it is not closed under the bracket."""
    # integer multiples of the basis: a bracket vanishes, or leaves the span,
    # exactly when it does for the basis itself
    vecs = int_rows(s.vectors)[0]
    abelian = True
    for i in range(s.dim):
        for j in range(i + 1, s.dim):
            br = g.bracket_coords(vecs[i], vecs[j])
            if any(x != 0 for x in br):
                abelian = False
                if not s.contains(br):
                    raise ValueError("subspace is not closed under the bracket")
    return abelian


def subalgebra(g: LieAlgebra, s: Subspace, name: str = "") -> LieAlgebra:
    """The subspace as a Lie algebra in its own basis; raises if not closed."""
    k = s.dim
    brackets: dict = {}
    for i in range(k):
        for j in range(i + 1, k):
            br = g.bracket_coords(s.vectors[i], s.vectors[j])
            if all(x == 0 for x in br):
                continue
            coords = s.solver.coords(br)
            if coords is None:
                raise ValueError("subspace is not closed under the bracket")
            entry = {c: v for c, v in enumerate(coords) if v != 0}
            if entry:
                brackets[(i, j)] = entry
    return LieAlgebra(name or "%s-sub" % g.name, k, brackets)
