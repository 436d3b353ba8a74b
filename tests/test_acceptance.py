"""Acceptance criteria, one test per criterion, each with a wall-clock budget.

Every test here re-states one end-to-end claim about the package and checks
it at the stated tolerances; the pytest -v line for each test is the
pass/fail line for that criterion.  Budgets are wall-clock upper bounds
measured on the reference container; the suite fails if a criterion
regresses past its budget.
"""

from __future__ import annotations

import time
from fractions import Fraction

from semicov.catalog import (
    CheckContext,
    adjoint_construction,
    cubic_construction,
    so_copies_construction,
    sp_so_construction,
    sym_skew_construction,
    sym_skewdual_construction,
    tri_sl_construction,
)
from semicov.catalog.families import cubic_combination
from semicov.covariants import (
    act_on_components,
    degree_audit,
    equivariance_check,
    express_in_span,
    family_rank,
    kernel_phi_check,
    values_matrix_at,
    weight_under,
)
from semicov.linalg import rank
from semicov.verify import RunConfig, run_entry, run_suite, to_json


def _no_failures(report_dict):
    bad = [c for c in report_dict["checks"] if c["verdict"] == "fail"]
    assert not bad, bad


def _row(report_dict, name):
    for c in report_dict["checks"]:
        if c["name"] == name:
            return c
    raise AssertionError("missing check row: %s" % name)


def _extra(cons, name):
    for e in cons.extras:
        if e.name == name:
            return e
    raise AssertionError("missing extra: %s" % name)


def _announce(num, ok, detail):
    print("ACCEPTANCE %02d: %s -- %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_acceptance_01_cube_exact_kernel_equivariance_brackets():
    t0 = time.monotonic()
    cons = cubic_construction()
    rep = cons.module
    ok = True
    # membership in Ker(phi) exactly for zero-sum coefficients, exact
    # failure otherwise (both polarities)
    for coeffs, want in [((1, -1, 0), "proved_zero"), ((0, 1, -1), "proved_zero"),
                         ((1, 1, 1), "proved_nonzero"), ((1, 0, 0), "proved_nonzero")]:
        f = cubic_combination(rep, *coeffs, name="acc")
        ok = ok and kernel_phi_check(f, CheckContext("exact")).verdict == want
    # full equivariance of both family members, exact
    for f in cons.family:
        ok = ok and equivariance_check(f, ctx=CheckContext("exact")).verdict == "proved_zero"
    # degree audit 2 + 2 = 8 - 4
    audit = degree_audit([f.degree for f in cons.family], 8, 4)
    ok = ok and audit.total == 4 and audit.codim == 4 and audit.verdict == "equality"
    # generic stabiliser: dimension 2, abelian, at 20 sampled points;
    # lifted brackets vanish at 20 sampled dual points
    rep_dict = run_entry("ex5.2", RunConfig(entries=("ex5.2",), samples=20))
    gs = _row(rep_dict, "gs_dimension_toral")
    ok = ok and gs["verdict"] in ("pass", "sampled-pass")
    pb = _row(rep_dict, "poisson_commute")
    ok = ok and pb["verdict"] in ("pass", "sampled-pass")
    kernel = _row(rep_dict, "kernel_phi")
    ok = ok and kernel["verdict"] == "pass"  # exact, not sampled
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _announce(1, ok, "cube family: exact kernel dichotomy, equivariance, "
                     "audit 4 = 8-4, toral stabiliser, commuting lifts "
                     "(%.2fs < 5s)" % elapsed)


def test_acceptance_02_triple_product_exact_ladder_and_scope():
    t0 = time.monotonic()
    cons = tri_sl_construction(3)
    f0, f1 = cons.family
    ok = True
    # the coefficient above the top degree vanishes identically
    top = _extra(cons, "vanishing_top_coefficient").run(CheckContext("exact"))
    ok = ok and top.verdict == "proved_zero"
    # exact kernel membership for both members
    for f in (f0, f1):
        ok = ok and kernel_phi_check(f, CheckContext("exact")).verdict == "proved_zero"
    # equivariance holds on the product part, fails on the mixing sl_2
    for f in (f0, f1):
        res = equivariance_check(f, cons.scope, CheckContext("exact"))
        ok = ok and res.verdict == "proved_zero"
    broken = equivariance_check(f0, cons.complement, CheckContext("exact"))
    ok = ok and broken.verdict == "proved_nonzero" and broken.witness is not None
    # ladder structure: h-weights (-1, +1), f kills F0, e kills F1,
    # e and f swap the members up to sign -- a 2-dimensional irreducible
    dim = cons.algebra.dim
    e = [0] * dim
    fvec = [0] * dim
    h = [0] * dim
    e[16], fvec[17], h[18] = 1, 1, 1
    ok = ok and weight_under(f0, h) == Fraction(-1)
    ok = ok and weight_under(f1, h) == Fraction(1)
    ok = ok and all(p.is_zero() for p in act_on_components(f0, fvec))
    ok = ok and all(p.is_zero() for p in act_on_components(f1, e))
    ok = ok and express_in_span(act_on_components(f0, e), [f1.components]) == [Fraction(-1)]
    ok = ok and express_in_span(act_on_components(f1, fvec), [f0.components]) == [Fraction(-1)]
    ok = ok and family_rank([f0, f1]) == 2
    # degree audit 3 + 3 = 18 - 12
    audit = degree_audit([3, 3], 18, 12)
    ok = ok and audit.total == 6 and audit.codim == 6 and audit.verdict == "equality"
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _announce(2, ok, "triple product n=3: exact kernel/scope split, sl_2 "
                     "ladder with weights -1/+1, audit 6 = 18-12 "
                     "(%.2fs < 60s)" % elapsed)


def test_acceptance_03_cyclic_chain_powers_and_witness_plane():
    t0 = time.monotonic()
    ok = True
    for n, k in [(2, 2), (3, 2)]:
        cfg = RunConfig(entries=("ex5.3",), overrides=(("n", n), ("k", k)))
        rep = run_entry("ex5.3", cfg)
        _no_failures(rep)
        degs = [c for c in rep["checks"] if c["name"] == "degree_audit"]
        assert degs and degs[0]["verdict"] == "pass"
        total = sum(range(k, n * k, k))
        ok = ok and total == k * n * (n - 1) // 2
        ok = ok and _row(rep, "witness_plane")["verdict"] in ("pass", "sampled-pass")
        ok = ok and _row(rep, "invariant_degrees")["verdict"] in ("pass", "sampled-pass")
        ok = ok and _row(rep, "kernel_phi")["verdict"] == "pass"
        ok = ok and _row(rep, "equivariance_scope")["verdict"] == "pass"
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _announce(3, ok, "cyclic chain (2,2) and (3,2): exact kernel and "
                     "equivariance, degree sum k n(n-1)/2, witness plane, "
                     "invariant degrees (%.2fs < 60s)" % elapsed)


def test_acceptance_04_sym_dual_skew_pairs_exact_and_sampled():
    t0 = time.monotonic()
    ok = True
    # n = 4: everything exact
    c4 = sym_skewdual_construction(4)
    tz = _extra(c4, "trace_zero").run(CheckContext("exact"))
    ok = ok and tz.verdict == "proved_zero"
    for f in c4.family:
        ok = ok and kernel_phi_check(f, CheckContext("exact")).verdict == "proved_zero"
    ok = ok and rank(values_matrix_at(c4.family, c4.witness)) == len(c4.family)
    a4 = degree_audit([f.degree for f in c4.family], c4.expected.dim_v,
                      c4.expected.quotient_degree)
    ok = ok and a4.verdict == "surplus" and a4.surplus == 2
    # n = 5: kernel sampled with at least degree+3 trials
    c5 = sym_skewdual_construction(5)
    tz5 = _extra(c5, "trace_zero").run(CheckContext("exact"))
    ok = ok and tz5.verdict == "proved_zero"
    for f in c5.family:
        res = kernel_phi_check(f, CheckContext("sampled", seed=11))
        ok = ok and res.verdict == "sampled_zero" and res.trials >= f.degree + 3
    ok = ok and rank(values_matrix_at(c5.family, c5.witness)) == len(c5.family)
    a5 = degree_audit([f.degree for f in c5.family], c5.expected.dim_v,
                      c5.expected.quotient_degree)
    ok = ok and a5.verdict == "equality"
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    _announce(4, ok, "symmetric/dual-skew pairs: traces vanish exactly, "
                     "kernel exact at n=4 and sampled (>= deg+3 trials) at "
                     "n=5, witness independence, surplus 2 vs equality "
                     "(%.2fs < 120s)" % elapsed)


def test_acceptance_05_symmetric_pairs_even_coefficients():
    t0 = time.monotonic()
    ok = True
    for n in (3, 4, 5):
        cons = sym_skew_construction(n)
        ev = _extra(cons, "det_even").run(CheckContext("exact"))
        ok = ok and ev.verdict == "proved_zero"
        for f in cons.family:
            # landing in the trace-zero algebra is part of the construction;
            # the component count must match the algebra dimension
            assert len(f.components) == cons.algebra.dim
            ok = ok and kernel_phi_check(f, CheckContext("exact")).verdict == "proved_zero"
            ok = ok and equivariance_check(f, ctx=CheckContext("exact")).verdict == "proved_zero"
    # odd-coefficient control fails the kernel condition at n = 3
    c3 = sym_skew_construction(3)
    control = next(c for c in c3.controls if c.name == "kernel_phi_control_odd")
    ok = ok and kernel_phi_check(control.covariant, CheckContext("exact")).verdict == "proved_nonzero"
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    _announce(5, ok, "symmetric pairs n=3,4,5: determinant even in the "
                     "pencil parameter, even coefficients exactly "
                     "equivariant kernel members, odd control fails "
                     "(%.2fs < 120s)" % elapsed)


def test_acceptance_06_symplectic_orthogonal_intertwiners():
    t0 = time.monotonic()
    ok = True
    for m in (1, 2):
        for case, q_expect in [("i", 2 * m * m), ("ii", 2 * m * (m + 1)),
                               ("iii", 2 * m * (m + 1))]:
            entry = "ex6.3/%s" % case
            cfg = RunConfig(entries=(entry,), overrides=(("m", m),))
            rep = run_entry(entry, cfg)
            _no_failures(rep)
            ok = ok and sp_so_construction(m, case).expected.quotient_degree == q_expect
            ok = ok and _row(rep, "form_conditions")["verdict"] == "pass"
            if case == "iii":
                ok = ok and _row(rep, "minor_covariant")["verdict"] == "pass"
                ok = ok and _row(rep, "minor_identity")["verdict"] == "pass"
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    _announce(6, ok, "symplectic-orthogonal pairs m=1,2, all three widths: "
                     "form conditions exact, skew minor identities, index "
                     "audits 2m^2 and 2m(m+1) (%.2fs < 120s)" % elapsed)


def test_acceptance_07_orthogonal_copies_minor():
    t0 = time.monotonic()
    ok = True
    for n in (2, 3):
        cfg = RunConfig(entries=("ex6.4",), overrides=(("n", n),))
        rep = run_entry("ex6.4", cfg)
        _no_failures(rep)
        ok = ok and _row(rep, "minor_identity")["verdict"] == "pass"
        ok = ok and _row(rep, "degree_audit")["verdict"] == "pass"
        exp = so_copies_construction(n).expected
        ok = ok and exp.quotient_degree == n * (n + 1)
        ok = ok and exp.quotient_dim == n * (n + 1) // 2
        ok = ok and _row(rep, "quotient_dim_estimate")["verdict"] in ("pass", "sampled-pass")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _announce(7, ok, "orthogonal copies n=2,3: annihilating minor exact, "
                     "audit n = n(n+2) - n(n+1), sampled quotient dimension "
                     "n(n+1)/2 (%.2fs < 30s)" % elapsed)


def test_acceptance_08_adjoint_family_spans_stabiliser():
    t0 = time.monotonic()
    ok = True
    for n in (2, 3, 4):
        cfg = RunConfig(entries=("ex-adjoint",), overrides=(("n", n),))
        rep = run_entry("ex-adjoint", cfg)
        _no_failures(rep)
        ok = ok and adjoint_construction(n).expected.degrees == tuple(range(1, n))
        ok = ok and _row(rep, "kernel_phi")["verdict"] == "pass"
        ok = ok and _row(rep, "equivariance_scope")["verdict"] == "pass"
        ok = ok and _row(rep, "kernel_span")["verdict"] in ("pass", "sampled-pass")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _announce(8, ok, "adjoint family n=2,3,4: exact kernel and equivariance, "
                     "degrees 1..n-1, values span the stabiliser at sampled "
                     "regular points (%.2fs < 30s)" % elapsed)


def test_acceptance_09_structural_suite_over_all_targets(bench_workloads):
    t0 = time.monotonic()
    report = run_suite(RunConfig())
    ok = not report.failed
    n_entries = 0
    for entry in report.entries:
        if entry["kind"] != "entry":
            continue
        n_entries += 1
        for name in ("jacobi", "kirillov_even", "rais_consistency", "b_of_q",
                     "index_stabilized"):
            row = _row(entry, name)
            ok = ok and row["verdict"] in ("pass", "sampled-pass")
        book = _row(entry, "bq_bookkeeping")
        ok = ok and book["verdict"] in ("pass", "sampled-pass", "skipped")
        for comp in entry["table_row_comparison"]:
            ok = ok and comp["status"] in ("match", "skipped")
    ok = ok and n_entries == 11
    ok = ok and len(report.entries) == 40
    # the default seed-0 report, frozen from earlier sources: the
    # byte-for-byte oracle that refactors must keep
    ok = ok and to_json(report).encode() == bench_workloads.read_golden("suite", 0)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 900.0
    _announce(9, ok, "structural sweep over all 11 constructions and 29 "
                     "table rows: Jacobi, even orbit dimensions, index "
                     "consistency, b(q) bookkeeping, printed-value "
                     "comparisons, report equal to the frozen seed-0 "
                     "golden (%.2fs < 900s)" % elapsed)


def test_acceptance_10_fixed_seed_reports_are_byte_identical():
    t0 = time.monotonic()
    cfg = RunConfig(entries=("ex5.2", "ex5.3", "ex6.3/i", "table2/8"), seed=7,
                    negative_controls=True)
    first = to_json(run_suite(cfg))
    second = to_json(run_suite(cfg))
    ok = first == second and len(first) > 1000
    elapsed = time.monotonic() - t0
    _announce(10, ok, "seed-7 rerun over entries and a table row produces "
                      "byte-identical JSON (%.2fs)" % elapsed)
