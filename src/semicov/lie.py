"""Finite-dimensional Lie algebras and their representations, exactly.

Algebras carry sparse structure constants over the rationals, plus (when
available) a faithful matrix realisation used to build modules.  Classical
families gl, sl, so, sp are constructed from explicit matrix conditions; so
and sp accept a user-chosen invariant form.  Products keep factor index
bookkeeping so projections to factors stay exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from .linalg import (
    Matrix,
    SpanSolver,
    block_diag,
    normalize_scalar,
    rank,
    rank_and_kernel,
)
from .sampling import rand_vector


@dataclass(frozen=True)
class FormConvention:
    """Invariant bilinear forms fixing so/sp conventions.

    symmetric: the matrix of the orthogonal form (defaults to the identity).
    skew: the matrix of the symplectic form (defaults to [[0, I], [-I, 0]]).
    """

    symmetric: Matrix | None = None
    skew: Matrix | None = None

    @staticmethod
    def default_symmetric(n: int) -> Matrix:
        return Matrix.identity(n)

    @staticmethod
    def default_skew(n: int) -> Matrix:
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
    """Lie algebra given by structure constants on a fixed basis."""

    def __init__(
        self,
        name: str,
        dim: int,
        brackets: dict,
        basis: list[Matrix] | None = None,
        matrix_size: int | None = None,
        factors: list[Factor] | None = None,
    ):
        self.name = name
        self.dim = dim
        # brackets: {(a, b) with a < b: {c: coeff}}; missing keys mean zero
        self.brackets = brackets
        self.basis = basis
        self.matrix_size = matrix_size
        self.factors = factors or []

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
        by_row = [dict(_nonzero_rows(m)) for m in mats]
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
        return LieAlgebra(name, dim, brackets, basis=mats, matrix_size=size)

    def bracket_basis(self, a: int, b: int) -> dict:
        """[e_a, e_b] as a sparse coordinate dict."""
        if a == b:
            return {}
        if a < b:
            return self.brackets.get((a, b), {})
        entry = self.brackets.get((b, a), {})
        return {c: -v for c, v in entry.items()}

    def bracket_coords(self, x: Sequence, y: Sequence) -> list:
        """[x, y] for coordinate vectors x, y."""
        out = [0] * self.dim
        nz_x = [(a, xa) for a, xa in enumerate(x) if xa != 0]
        nz_y = [(b, yb) for b, yb in enumerate(y) if yb != 0]
        for a, xa in nz_x:
            for b, yb in nz_y:
                entry = self.bracket_basis(a, b)
                if entry:
                    f = xa * yb
                    for c, v in entry.items():
                        out[c] = out[c] + f * v
        return [normalize_scalar(v) for v in out]

    def check_jacobi(
        self, rng: random.Random | None = None, exhaustive_limit: int = 40, samples: int = 200
    ):
        """Exact Jacobi identity; all basis triples for small dimensions,
        random triples above the limit.  Returns (ok, witness_triple)."""
        n = self.dim

        def jac(a, b, c):
            # [e_a, [e_b, e_c]] + cyclic, composed from the sparse brackets
            total: dict = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for d, s in self.bracket_basis(y, z).items():
                    for e, t in self.bracket_basis(x, d).items():
                        total[e] = total.get(e, 0) + s * t
            return all(v == 0 for v in total.values())

        if n <= exhaustive_limit:
            triples = (
                (a, b, c) for a in range(n) for b in range(a + 1, n) for c in range(b + 1, n)
            )
            for a, b, c in triples:
                if not jac(a, b, c):
                    return False, (a, b, c)
            return True, None
        if rng is None:
            rng = random.Random(0)
        for _ in range(samples):
            a, b, c = (rng.randrange(n) for _ in range(3))
            if not jac(a, b, c):
                return False, (a, b, c)
        return True, None

    def factor_basis_range(self, idx: int) -> range:
        f = self.factors[idx]
        return range(f.basis_offset, f.basis_offset + f.algebra.dim)


def _nonzero_rows(m: Matrix) -> list:
    """The nonzero rows of m as (i, [(j, m_ij), ...]), zero entries left out."""
    rows = ((i, [(j, x) for j, x in enumerate(r) if x != 0]) for i, r in enumerate(m.rows))
    return [(i, row) for i, row in rows if row]


def _matrix_unit_basis(n: int):
    return [(i, j) for i in range(n) for j in range(n)]


def gl(n: int) -> LieAlgebra:
    mats = [Matrix.unit(n, n, i, j) for i, j in _matrix_unit_basis(n)]
    return LieAlgebra.from_matrices("gl%d" % n, mats)


def sl(n: int) -> LieAlgebra:
    mats = [Matrix.unit(n, n, i, j) for i, j in _matrix_unit_basis(n) if i != j]
    for i in range(n - 1):
        h = Matrix.zeros(n, n)
        h.rows[i][i] = 1
        h.rows[i + 1][i + 1] = -1
        mats.append(h)
    return LieAlgebra.from_matrices("sl%d" % n, mats)


def _form_condition_kernel(n: int, form: Matrix) -> list[Matrix]:
    """Basis of {X : X^t F + F X = 0} via an exact kernel computation."""
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
    out = []
    for v in kern:
        out.append(Matrix([[v[i * n + j] for j in range(n)] for i in range(n)]))
    return out


def so(n: int, form: Matrix | None = None) -> LieAlgebra:
    if form is None:
        form = FormConvention.default_symmetric(n)
    if form.transpose() != form:
        raise ValueError("orthogonal form must be symmetric")
    if rank(form) != n:
        raise ValueError("orthogonal form must be nondegenerate")
    mats = _form_condition_kernel(n, form)
    g = LieAlgebra.from_matrices("so%d" % n, mats)
    if g.dim != n * (n - 1) // 2:
        raise AssertionError("unexpected so dimension")
    return g


def sp(n: int, form: Matrix | None = None) -> LieAlgebra:
    if n % 2:
        raise ValueError("sp needs even size")
    if form is None:
        form = FormConvention.default_skew(n)
    if form.transpose() != -form:
        raise ValueError("symplectic form must be skew-symmetric")
    if rank(form) != n:
        raise ValueError("symplectic form must be nondegenerate")
    mats = _form_condition_kernel(n, form)
    g = LieAlgebra.from_matrices("sp%d" % n, mats)
    if g.dim != n * (n + 1) // 2:
        raise AssertionError("unexpected sp dimension")
    return g


def product(*algebras: LieAlgebra, name: str | None = None) -> LieAlgebra:
    """Direct product with factor bookkeeping and block-diagonal matrices."""
    dim = sum(g.dim for g in algebras)
    brackets: dict = {}
    factors: list[Factor] = []
    basis: list[Matrix] | None = []
    off = 0
    block = 0
    have_mats = all(g.basis is not None for g in algebras)
    total_size = sum(g.matrix_size or 0 for g in algebras) if have_mats else None
    for g in algebras:
        factors.append(Factor(g.name, g, off, block))
        for (a, b), entry in g.brackets.items():
            brackets[(a + off, b + off)] = {c + off: v for c, v in entry.items()}
        if have_mats:
            for m in g.basis:
                big = Matrix.zeros(total_size, total_size)
                for i in range(m.nrows):
                    big.rows[block + i][block : block + m.ncols] = list(m.rows[i])
                basis.append(big)
            block += g.matrix_size
        off += g.dim
    if not have_mats:
        basis = None
        total_size = None
    pname = name or " x ".join(g.name for g in algebras)
    return LieAlgebra(pname, dim, brackets, basis=basis, matrix_size=total_size, factors=factors)


class Representation:
    """A module given by one action matrix per algebra basis element.

    Nothing mutates ``action`` after construction, so ``nonzero_rows[a]``
    (the nonzero rows of ``action[a]`` as (i, [(j, entry), ...])) is read
    once here, and every action on a vector uses it.
    """

    def __init__(self, algebra: LieAlgebra, action: Sequence[Matrix], label: str = ""):
        self.algebra = algebra
        self.action = list(action)
        if len(self.action) != algebra.dim:
            raise ValueError("need one action matrix per basis element")
        self.dim_v = self.action[0].nrows if self.action else 0
        for m in self.action:
            if m.nrows != self.dim_v or m.ncols != self.dim_v:
                raise ValueError("action matrices must be square of equal size")
        self.label = label
        self.nonzero_rows = [_nonzero_rows(m) for m in self.action]

    def __repr__(self):
        return "Representation(%s on %s, dim=%d)" % (self.label or "V", self.algebra.name, self.dim_v)

    def _row_values(self, a: int, v: Sequence):
        """(i, (rho_a v)_i) over the nonzero rows i of rho_a."""
        for i, row in self.nonzero_rows[a]:
            acc = 0
            for j, m in row:
                b = v[j]
                if b != 0:
                    acc = acc + m * b
            yield i, acc

    def act_basis(self, a: int, v: Sequence) -> list:
        """rho_a(v), the same values as ``self.action[a].apply(v)``."""
        out = [0] * self.dim_v
        for i, w in self._row_values(a, v):
            out[i] = w
        return out

    def act(self, x: Sequence, v: Sequence) -> list:
        out = [0] * self.dim_v
        for a, xa in enumerate(x):
            if xa == 0:
                continue
            for i, w in self._row_values(a, v):
                out[i] = out[i] + xa * w
        return [normalize_scalar(o) for o in out]

    def operator(self, x: Sequence) -> Matrix:
        out = Matrix.zeros(self.dim_v, self.dim_v)
        for a, xa in enumerate(x):
            if xa == 0:
                continue
            out = out + self.action[a] * xa
        return out

    def check_homomorphism(self, pairs: Sequence[tuple[int, int]] | None = None):
        """rho([e_a, e_b]) == [rho_a, rho_b], exactly.

        With pairs=None every basis pair is checked.  Returns (ok, witness).
        """
        g = self.algebra
        if pairs is None:
            pairs = [(a, b) for a in range(g.dim) for b in range(a + 1, g.dim)]
        for a, b in pairs:
            comm = self.action[a] * self.action[b] - self.action[b] * self.action[a]
            expect = Matrix.zeros(self.dim_v, self.dim_v)
            for c, v in g.bracket_basis(a, b).items():
                expect = expect + self.action[c] * v
            if comm != expect:
                return False, (a, b)
        return True, None


def defining(g: LieAlgebra) -> Representation:
    """The matrix realisation itself, acting on column coordinates."""
    if g.basis is None:
        raise ValueError("algebra has no matrix realisation")
    return Representation(g, g.basis, label="defining(%s)" % g.name)


def adjoint_rep(g: LieAlgebra) -> Representation:
    mats = []
    for a in range(g.dim):
        m = Matrix.zeros(g.dim, g.dim)
        for b in range(g.dim):
            for c, v in g.bracket_basis(a, b).items():
                m.rows[c][b] = v
        mats.append(m)
    return Representation(g, mats, label="ad(%s)" % g.name)


def dual(r: Representation) -> Representation:
    mats = [-(m.transpose()) for m in r.action]
    return Representation(r.algebra, mats, label="dual(%s)" % (r.label or "V"))


def direct_sum(*reps: Representation) -> Representation:
    alg = reps[0].algebra
    for r in reps:
        if r.algebra is not alg:
            raise ValueError("direct sum needs modules over one algebra")
    mats = [block_diag([r.action[a] for r in reps]) for a in range(alg.dim)]
    return Representation(alg, mats, label=" + ".join(r.label or "V" for r in reps))


def tensor(r1: Representation, r2: Representation) -> Representation:
    if r1.algebra is not r2.algebra:
        raise ValueError("tensor product needs modules over one algebra")
    n1, n2 = r1.dim_v, r2.dim_v
    i1, i2 = Matrix.identity(n1), Matrix.identity(n2)
    mats = [r1.action[a].kron(i2) + i1.kron(r2.action[a]) for a in range(r1.algebra.dim)]
    return Representation(r1.algebra, mats, label="(%s)x(%s)" % (r1.label or "V", r2.label or "W"))


def sym_power(r: Representation, d: int) -> Representation:
    """Symmetric power with monomial basis (derivation action)."""
    import itertools

    basis = list(itertools.combinations_with_replacement(range(r.dim_v), d))
    index = {b: i for i, b in enumerate(basis)}
    mats = []
    for a in range(r.algebra.dim):
        rho = r.action[a]
        m = Matrix.zeros(len(basis), len(basis))
        for col, mono in enumerate(basis):
            for k in range(d):
                ik = mono[k]
                for j in range(r.dim_v):
                    c = rho[j, ik]
                    if c == 0:
                        continue
                    new = tuple(sorted(mono[:k] + (j,) + mono[k + 1 :]))
                    row = index[new]
                    m.rows[row][col] = normalize_scalar(m.rows[row][col] + c)
        mats.append(m)
    return Representation(r.algebra, mats, label="S^%d(%s)" % (d, r.label or "V"))


def ext_power(r: Representation, d: int) -> Representation:
    """Exterior power with wedge basis (derivation action with signs)."""
    import itertools

    basis = list(itertools.combinations(range(r.dim_v), d))
    index = {b: i for i, b in enumerate(basis)}
    mats = []
    for a in range(r.algebra.dim):
        rho = r.action[a]
        m = Matrix.zeros(len(basis), len(basis))
        for col, wedge in enumerate(basis):
            for k in range(d):
                ik = wedge[k]
                for j in range(r.dim_v):
                    c = rho[j, ik]
                    if c == 0 or j in wedge[:k] or j in wedge[k + 1 :]:
                        continue
                    raw = wedge[:k] + (j,) + wedge[k + 1 :]
                    new = tuple(sorted(raw))
                    # sign of the sort permutation: j moves past the entries
                    # strictly between its old and new positions
                    sign = 1
                    others = raw[:k] + raw[k + 1 :]
                    for o in others:
                        if (o > j) != (o > ik):
                            sign = -sign
                    row = index[new]
                    m.rows[row][col] = normalize_scalar(m.rows[row][col] + sign * c)
        mats.append(m)
    return Representation(r.algebra, mats, label="L^%d(%s)" % (d, r.label or "V"))


def subrepresentation(r: Representation, vectors: Sequence[Sequence], label: str = "") -> Representation:
    """Restrict to an invariant subspace, in the coordinates of `vectors`."""
    solver = SpanSolver(vectors)
    k = len(vectors)
    mats = []
    for a in range(r.algebra.dim):
        cols = []
        for v in vectors:
            img = r.act_basis(a, v)
            coords = solver.coords(img)
            if coords is None:
                raise ValueError("subspace is not invariant under basis element %d" % a)
            cols.append(coords)
        mats.append(Matrix.from_cols(cols))
    return Representation(r.algebra, mats, label=label or "sub(%s)" % (r.label or "V"))


def lift_factor(prod: LieAlgebra, idx: int, rep: Representation) -> Representation:
    """Extend a module of one factor of a product by zero on the others."""
    f = prod.factors[idx]
    if rep.algebra.dim != f.algebra.dim:
        raise ValueError("module does not match the chosen factor")
    zero = Matrix.zeros(rep.dim_v, rep.dim_v)
    mats = []
    for a in range(prod.dim):
        if f.basis_offset <= a < f.basis_offset + f.algebra.dim:
            mats.append(rep.action[a - f.basis_offset])
        else:
            mats.append(zero)
    return Representation(prod, mats, label="%s@%s" % (rep.label or "V", f.name))


@dataclass
class Subspace:
    ambient: int
    vectors: list = field(default_factory=list)
    _solver: SpanSolver | None = None

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def solver(self) -> SpanSolver:
        if self._solver is None:
            self._solver = SpanSolver(self.vectors)
        return self._solver

    def contains(self, v: Sequence) -> bool:
        if not self.vectors:
            return all(x == 0 for x in v)
        return self.solver().coords(v) is not None


def action_matrix_at(r: Representation, v: Sequence) -> Matrix:
    """Columns rho_a(v): the differential of the orbit map at v."""
    return Matrix.from_cols([r.act_basis(a, v) for a in range(r.algebra.dim)])


def stabiliser(r: Representation, v: Sequence) -> Subspace:
    """Exact annihilator {x in g : x . v = 0}."""
    _, kern = rank_and_kernel(action_matrix_at(r, v))
    return Subspace(r.algebra.dim, kern)


def stabiliser_sample(
    r: Representation, rng: random.Random, samples: int = 20, bound: int = 10
) -> list[tuple[list, Subspace]]:
    """`samples` integer points of V in [-bound, bound], each paired with its
    exact stabiliser.

    This is the one sample of generic points per module: the generic
    stabiliser dimension is the minimum over the pairs, and every check
    about g_x at a generic x reads the same pairs.
    """
    out = []
    for _ in range(samples):
        v = rand_vector(rng, r.dim_v, bound)
        out.append((v, stabiliser(r, v)))
    return out


def is_abelian(g: LieAlgebra, s: Subspace) -> bool:
    """True when the subspace is an abelian subalgebra; raises ValueError if
    it is not closed under the bracket."""
    abelian = True
    for i in range(s.dim):
        for j in range(i + 1, s.dim):
            br = g.bracket_coords(s.vectors[i], s.vectors[j])
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
            coords = s.solver().coords(br)
            if coords is None:
                raise ValueError("subspace is not closed under the bracket")
            entry = {c: v for c, v in enumerate(coords) if v != 0}
            if entry:
                brackets[(i, j)] = entry
    return LieAlgebra(name or "%s-sub" % g.name, k, brackets)
