"""Sparse module builders against their dense oracles, and what they cost.

``tests/module_oracles.py`` builds every module densely, the way the
library did before it stored only nonzero action entries.  The modules
here are ones the construction digest does not cover: both tensor factors
acting, duals of duals, Fraction entries (sp_4 of a custom skew form),
degree-3 powers, matrix-slot modules over custom-form so and sp, and
subrepresentations.  Every builder's ``nonzero_rows`` equal the oracle's
rows, entry types included, and the derived modules take their operand's
rows without a copy where they can.  A slot module's one bilinear build
equals the per-basis-element build of ``module_oracles.matrix_pair_rows``
on every matrix-slot module of the catalog.  The count tests fix the cost
of a build without a clock: a slot module calls its ``fields`` once, the
sparse builders construct no ``Matrix``, and a subrepresentation runs one
elimination.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

import module_oracles as oracle
from semicov.catalog import all_entries, all_rows, build_construction, get_entry
from semicov.catalog.support import SKEW, SYM, MatrixPairModule, left_right_fields
from semicov.lie import (
    Representation,
    defining,
    direct_sum,
    dual,
    ext_power,
    lift_factor,
    product,
    sl,
    so,
    sp,
    subrepresentation,
    sym_power,
    tensor,
)
from semicov.linalg import Matrix, normalize_scalar

SYM_FORM = Matrix([[2, 1, 0], [1, 1, 0], [0, 0, -3]])
SKEW_FORM = Matrix([[0, 1, 2, 0], [-1, 0, 0, 3], [-2, 0, 0, 1], [0, -3, -1, 0]])


def typed(mats: list[Matrix]) -> list:
    """Entries with their types.  No builder stores a zero entry, so a zero
    is compared by value only (a dense sum may leave a Fraction zero)."""
    return [[[(type(x), x) if x != 0 else 0 for x in row] for row in m.rows] for m in mats]


def typed_rows(rows: list) -> list:
    """Nonzero rows with each entry's type."""
    return [[(i, [(j, type(x), x) for j, x in row]) for i, row in nz] for nz in rows]


def same_rows(rep: Representation, mats: list[Matrix]) -> bool:
    """rep stores exactly the nonzero rows of the oracle's dense matrices, sorted, with their types."""
    return typed_rows(rep.nonzero_rows) == typed_rows(oracle.rows_of(mats))


def _so3() -> Representation:
    return defining(so(3, SYM_FORM))


def _sp4() -> Representation:
    return defining(sp(4, SKEW_FORM))


def test_sp4_form_has_fraction_entries():
    # the Fraction cases below need a module whose action holds Fractions
    assert any(type(x) is Fraction for m in _sp4().action for row in m.rows for x in row)


def test_tensor_with_both_factors_acting_matches_kronecker():
    for r in (defining(sl(3)), _sp4(), _so3()):
        for r2 in (dual(r), r):
            assert typed(tensor(r, r2).action) == typed(oracle.tensor(r, r2))
            assert same_rows(tensor(r, r2), oracle.tensor(r, r2))


def test_dual_and_double_dual_match_transpose():
    for r in (defining(sl(3)), _so3(), _sp4(), ext_power(_sp4(), 2)):
        assert typed(dual(r).action) == typed(oracle.dual(r))
        assert typed(dual(dual(r)).action) == typed(r.action)
        assert same_rows(dual(r), oracle.dual(r)) and dual(dual(r)).nonzero_rows == r.nonzero_rows


def test_direct_sums_with_fraction_entries_match_block_diag():
    for r in (_so3(), _sp4()):
        parts = (r, dual(r), sym_power(r, 2))
        assert typed(direct_sum(*parts).action) == typed(oracle.direct_sum(*parts))
        assert same_rows(direct_sum(*parts), oracle.direct_sum(*parts))


@pytest.mark.parametrize("skew", [False, True])
def test_degree3_powers_match_dense_derivation(skew):
    build = ext_power if skew else sym_power
    so3 = _so3()
    for r in (so3, _sp4(), direct_sum(so3, dual(so3))):
        assert typed(build(r, 3).action) == typed(oracle.power(r, 3, skew))
        assert same_rows(build(r, 3), oracle.power(r, 3, skew))


def _congruence(s: Matrix, mats: list[Matrix]) -> list[Matrix]:
    """M -> s M + M s^t on square slots, M -> s M on full ones: linear, and
    it keeps symmetric and skew slots in their kind."""
    return [s * M + M * s.transpose() if M.nrows == M.ncols else s * M for M in mats]


@pytest.mark.parametrize("shape", ["full", SYM, SKEW])
def test_matrix_pair_module_matches_unit_loop(shape):
    for g in (so(3, SYM_FORM), sp(4, SKEW_FORM)):
        n = g.matrix_size
        slots = [(n, 2)] if shape == "full" else [(shape, n)]
        mod = MatrixPairModule(g, slots, _congruence)
        want = oracle.matrix_pair_action(mod, _congruence)
        # the unit loop leaves integer sums such as 1/2 + 1/2 as Fractions;
        # the linear read gives them as ints, like every catalog module
        assert typed(mod.rep.action) == typed([m.map(normalize_scalar) for m in want])
        assert typed_rows(mod.rep.nonzero_rows) == typed_rows(oracle.matrix_pair_rows(mod, _congruence))


def _phi2_sp6() -> tuple:
    """The second exterior power of Sp_6 and a basis of its 14-dim summand,
    as ``catalog.tables`` builds them."""
    r = ext_power(defining(sp(6)), 2)
    pairs = list(itertools.combinations(range(6), 2))
    form_pairs = [(0, 3), (1, 4), (2, 5)]
    vectors = [[Fraction(q == p) for q in pairs] for p in pairs if p not in form_pairs]
    for a, b in ((0, 1), (1, 2)):
        vectors.append([Fraction((q == form_pairs[a]) - (q == form_pairs[b])) for q in pairs])
    return r, vectors


def _diagonal_sp4() -> tuple:
    """The diagonal copy of sp(4, form) in its square, on a Fraction basis."""
    r = _sp4()
    rows = [[1, Fraction(1, 2), 0, 0], [0, 1, -3, 0], [0, 0, 1, Fraction(2, 3)], [1, 0, 0, 1]]
    return direct_sum(r, r), [row + row for row in rows]


@pytest.mark.parametrize("build", [_phi2_sp6, _diagonal_sp4], ids=["phi2_sp6", "diagonal_sp4"])
def test_subrepresentation_matches_one_solve_per_image(build):
    r, vectors = build()
    sub = subrepresentation(r, vectors)
    assert sub.dim_v == len(vectors)
    assert typed(sub.action) == typed(oracle.subrepresentation(r, vectors))
    assert same_rows(sub, oracle.subrepresentation(r, vectors))


def test_subrepresentation_rejects_non_invariant_and_dependent_vectors():
    r, vectors = _diagonal_sp4()
    plane = [row[:4] + [0] * 4 for row in vectors[:2]]  # sp4 acts irreducibly
    with pytest.raises(ValueError, match="not invariant"):
        subrepresentation(r, plane)
    with pytest.raises(ValueError, match="not invariant"):
        oracle.subrepresentation(r, plane)
    with pytest.raises(ValueError, match="dependent"):
        subrepresentation(r, vectors[:3] + [[2 * x for x in vectors[0]]])


def test_kron_oracle():
    a = Matrix([[1, 2], [3, 4]])
    k = oracle.kron(a, Matrix.identity(2))
    assert k.nrows == k.ncols == 4
    assert k.rows[0] == [1, 0, 2, 0]
    assert k.rows[3] == [0, 3, 0, 4]


# -- the bilinear build on the catalog ----------------------------------------------

# every configuration with a matrix-slot module: the entries at their
# defaults, the larger parameters of the README and the benchmark, the table rows
SLOT_CONFIGS = [(e.id, {}) for e in all_entries()] + [
    ("ex6.1", {"n": 4}), ("ex6.1", {"n": 6}), ("ex6.3/iii", {"m": 2}), ("ex6.3/iii", {"m": 3}),
    ("ex5.1", {"n": 3}), ("ex5.1", {"n": 4}),
]


def test_bilinear_build_matches_the_per_basis_build_on_the_catalog(monkeypatch):
    built = []
    init = MatrixPairModule.__init__

    def capture(self, algebra, shapes, fields, label=""):
        init(self, algebra, shapes, fields, label)
        built.append((self, fields))

    monkeypatch.setattr(MatrixPairModule, "__init__", capture)
    for entry_id, params in SLOT_CONFIGS:
        build_construction(get_entry(entry_id), get_entry(entry_id).resolve(params))
    for row in all_rows():
        if row.module_spec is not None:
            row.module_spec.build(dict(row.module_spec.default_params))
    labels = {(mod.rep.algebra.name, mod.rep.label) for mod, _ in built}
    assert len(labels) >= 16, sorted(labels)
    for mod, fields in built:
        want = oracle.matrix_pair_rows(mod, fields)
        assert typed_rows(mod.rep.nonzero_rows) == typed_rows(want), mod.rep.label


# -- the bilinearity premise and the sparse constructor ----------------------------


@pytest.mark.parametrize(
    "fields",
    [
        lambda s, mats: [M * M for M in mats],
        lambda s, mats: [M + Matrix.identity(M.nrows) for M in mats],
        lambda s, mats: [M * 2 for M in mats],
        lambda s, mats: [s * s * M for M in mats],
        lambda s, mats: [s + M for M in mats],
    ],
    ids=["quadratic", "affine", "constant-in-s", "quadratic-in-s", "sum"],
)
def test_matrix_pair_module_rejects_nonlinear_fields(fields):
    with pytest.raises(ValueError, match="linear"):
        MatrixPairModule(sl(2), [(2, 2)], fields)


def test_sparse_constructor_takes_rows_as_given():
    g = sl(2)
    with pytest.raises(ValueError, match="one action matrix per basis element"):
        Representation(g, [[]] * (g.dim - 1), 2)
    r = defining(g)
    rows = [list(nz) for nz in r.nonzero_rows]
    assert all(a is b for a, b in zip(Representation(g, rows, 2).nonzero_rows, rows))
    # a lifted module shares its factor's rows, and a first summand its rows' entries
    prod = product(sl(3), g)
    lifted = lift_factor(prod, 1, r)
    assert all(lifted.nonzero_rows[8 + a] is nz for a, nz in enumerate(r.nonzero_rows))
    assert all(row is nz[k][1] for nz, summed in zip(r.nonzero_rows, direct_sum(r, r).nonzero_rows)
               for k, (_, row) in enumerate(summed[: len(nz)]))


# -- build cost, by count ----------------------------------------------------------


def test_matrix_pair_module_calls_fields_once():
    g = product(sl(3), sl(2))
    lr = left_right_fields(g)
    calls = []

    def fields(s, mats):
        calls.append(s)
        return lr(s, mats)

    mod = MatrixPairModule(g, [(3, 2)], fields)
    assert len(calls) == 1 and mod.dim_v == 6
    assert typed_rows(mod.rep.nonzero_rows) == typed_rows(oracle.matrix_pair_rows(mod, lr))


def test_sparse_builders_construct_no_matrix(record):
    g = product(sl(3), sl(2))
    r = defining(sl(3))
    rd = dual(r)
    built = record("linalg.Matrix.__init__")["linalg.Matrix.__init__"]
    tensor(r, rd)
    direct_sum(r, rd)
    dual(rd)
    lift_factor(g, 0, r)
    sym_power(r, 3)
    ext_power(r, 2)
    assert built == []


def test_subrepresentation_runs_one_elimination(record):
    """One elimination solves every image; no per-image solve, and no
    Matrix but the one of the spanning vectors."""
    r, vectors = _phi2_sp6()
    record("linalg._eliminate", "linalg.SpanSolver.coords", "linalg.Matrix.__init__")
    subrepresentation(r, vectors)
    assert sorted(path for path, _ in record.log) == ["linalg.Matrix.__init__", "linalg._eliminate"]
