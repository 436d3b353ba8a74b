"""Check plans, reports and serialization for catalog verification runs.

``run_suite`` executes, per selected target, the full plan of identity
checks (construction audit, Jacobi, kernel/equivariance, span and weight
structure, degree audits, lifts, Poisson brackets, index bookkeeping and
table comparisons) and assembles a deterministic report.  Nothing aborts on
a failed check; every failure carries a re-evaluatable witness.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction

from .catalog import (
    Construction,
    ParameterError,
    TABLE_CAPTIONS,
    all_entries,
    all_rows,
    build_construction,
    find_line,
    get_entry,
    get_row,
    quotient_dim_estimate,
    resolve_id,
    rows_for_entry,
)
from .covariants import (
    degree_audit,
    equivariance_check,
    independence_rank_at,
    kernel_phi_check,
    kernel_span_check,
    lift_invariance_check,
    poisson_commute_check,
    values_matrix_at,
)
from .lie import is_abelian, stabiliser_sample
from .linalg import Matrix, rank
from .poly import CheckContext, CutoffExceeded, MultiPoly
from .sampling import derive_rng
from .semidirect import DualPoint, SemidirectProduct, index_estimate, rais_consistency

__all__ = ["RunConfig", "Report", "run_suite", "run_target", "to_json", "to_text", "default_targets"]


@dataclass(frozen=True)
class RunConfig:
    entries: tuple[str, ...] = ()
    overrides: tuple[tuple[str, int], ...] = ()  # (-n/-m/-k values)
    seed: int = 0
    mode: str = "auto"  # exact | sampled | auto
    samples: int = 20
    bound: int = 10
    jobs: int = 1
    negative_controls: bool = False
    timings: bool = False

    def __post_init__(self):
        self.ctx  # bad knobs raise here, before any target runs

    @property
    def ctx(self) -> CheckContext:
        """The knobs every identity check of the run reads."""
        return CheckContext(self.mode, self.seed, self.samples, self.bound)

    def override_dict(self) -> dict:
        return dict(self.overrides)


@dataclass
class Report:
    config: dict
    entries: list  # list of plain dicts, one per target

    @property
    def failed(self) -> bool:
        return any(
            check["verdict"] == "fail" for entry in self.entries for check in entry["checks"]
        )

    @property
    def ran_nothing(self) -> bool:
        """True when every check row was skipped, so nothing was verified."""
        return all(
            check["verdict"] == "skipped" for entry in self.entries for check in entry["checks"]
        )


# -- serialization helpers ----------------------------------------------------


def jsonable(obj):
    """Exact-arithmetic objects to JSON-stable values; rationals as 'p/q'."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, MultiPoly):
        return str(obj)
    if isinstance(obj, Matrix):
        return [jsonable(row) for row in obj.rows]
    if isinstance(obj, DualPoint):
        return {"xi": jsonable(obj.xi), "v": jsonable(obj.v)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    return str(obj)


_VERDICT = {"proved_zero": "pass", "sampled_zero": "sampled-pass", "proved_nonzero": "fail"}


def _row(name: str, verdict: str, detail: str = "", witness=None, ms=None) -> dict:
    out = {"name": name, "verdict": verdict}
    if detail:
        out["detail"] = detail
    if witness is not None:
        out["witness"] = jsonable(witness)
    if ms is not None:
        out["runtime_ms"] = ms
    return out


def _identity_row(name: str, build, *args) -> dict:
    """The row ``build(name, *args)`` makes from its identity checks; skipped,
    with the refusal, when exact mode is refused past the cutoffs."""
    try:
        return build(name, *args)
    except CutoffExceeded as err:
        return _row(name, "skipped", detail=str(err))


def _zero_row(name: str, run, detail: str = "", invert: bool = False) -> dict:
    """The row of the one identity check ``run()``."""
    res = run()
    if invert:
        # expected-fail checks: a proved nonzero value is the desired outcome
        if res.verdict == "proved_nonzero":
            return _row(name, "pass", detail=detail or "fails as required", witness=res.witness)
        return _row(name, "fail", detail="identity unexpectedly holds (%s)" % res.mode)
    verdict = _VERDICT[res.verdict]
    d = detail or ("%s mode" % res.mode)
    if res.verdict == "sampled_zero" and res.trials:
        d += ", %d trials" % res.trials
    return _row(name, verdict, detail=d, witness=res.witness if verdict == "fail" else None)


def _aggregate(name: str, family, check, detail_extra: str = "") -> dict:
    """One report row for ``check`` run on each covariant of the family."""
    results = [(F.name, check(F)) for F in family]
    for label, res in results:
        if res.verdict == "proved_nonzero":
            return _row(name, "fail", detail="fails at %s" % label, witness=res.witness)
    sampled = [r for _, r in results if r.verdict == "sampled_zero"]
    if sampled:
        trials = min(r.trials for r in sampled)
        detail = "%d covariants; sampled, >=%d trials each" % (len(results), trials)
        if detail_extra:
            detail += "; " + detail_extra
        return _row(name, "sampled-pass", detail=detail)
    detail = "%d covariants; exact" % len(results)
    if detail_extra:
        detail += "; " + detail_extra
    return _row(name, "pass", detail=detail)


# -- per-entry plan -----------------------------------------------------------


def _check_construction_audit(cons: Construction, entry_id: str, params: dict) -> dict:
    exp = cons.expected
    problems = []
    if cons.module.dim_v != exp.dim_v:
        problems.append("module dimension %d != expected %d" % (cons.module.dim_v, exp.dim_v))
    if len(cons.family) != exp.rank:
        problems.append("family size %d != rank %d" % (len(cons.family), exp.rank))
    degs = tuple(F.degree for F in cons.family)
    if degs != exp.degrees:
        problems.append("degrees %s != expected %s" % (degs, exp.degrees))
    dim_g = cons.algebra.dim
    if exp.quotient_dim != exp.dim_v - dim_g + exp.rank:
        problems.append(
            "quotient dim %d != dim V - dim g + l = %d"
            % (exp.quotient_dim, exp.dim_v - dim_g + exp.rank)
        )
    line = find_line("check", entry_id, params)
    if line is None:
        frozen = "no frozen manifest line for these parameters"
    else:
        frozen = "matches the frozen manifest line"
        pairs = [
            ("dim_v", exp.dim_v),
            ("l", exp.rank),
            ("q", exp.quotient_degree),
            ("degrees", exp.degrees),
            ("audit", exp.audit_verdict),
            ("quotient_dim", exp.quotient_dim),
        ]
        for key, got in pairs:
            want = line.values.get(key)
            if want is not None and want != got:
                problems.append("manifest %s=%s but computed %s" % (key, want, got))
    if problems:
        return _row("construction_audit", "fail", witness=problems)
    detail = "dim V=%d, l=%d, q=%d, degrees=%s; %s" % (
        exp.dim_v,
        exp.rank,
        exp.quotient_degree,
        ",".join(str(d) for d in exp.degrees),
        frozen,
    )
    return _row("construction_audit", "pass", detail=detail)


def _check_jacobi(q: SemidirectProduct) -> dict:
    ok, witness = q.lie.check_jacobi()
    if not ok:
        return _row("jacobi", "fail", witness=witness)
    return _row("jacobi", "pass", detail="all %d^3 basis triples, exact" % q.dim)


def _check_gs(cons: Construction, sample: list) -> dict:
    best = min(s.dim for _, s in sample)
    witness = None
    for v, s in sample:
        if s.dim != best:
            continue
        try:
            if not is_abelian(cons.module.algebra, s):
                witness = ("non-abelian stabiliser", v)
                break
        except ValueError:
            witness = ("stabiliser not closed under bracket", v)
            break
    if best != cons.expected.rank:
        return _row(
            "gs_dimension_toral",
            "fail",
            detail="sampled generic stabiliser dim %s != %d" % (best, cons.expected.rank),
            witness=sample[0][0],
        )
    if witness is not None:
        return _row("gs_dimension_toral", "fail", witness=witness)
    return _row(
        "gs_dimension_toral",
        "sampled-pass",
        detail="dim %d, abelian at all %d minimal-dimension samples" % (best, len(sample)),
    )


def _check_quotient_estimate(cons: Construction, sample: list) -> dict:
    # dim V - max orbit rank, where the orbit rank at v is dim g - dim g_v
    rep = cons.module
    est = rep.dim_v - rep.algebra.dim + min(s.dim for _, s in sample)
    if est != cons.expected.quotient_dim:
        return _row(
            "quotient_dim_estimate",
            "fail",
            detail="sampled estimate %d != expected %d" % (est, cons.expected.quotient_dim),
        )
    return _row(
        "quotient_dim_estimate",
        "sampled-pass",
        detail="dim V - max orbit rank = %d over %d samples" % (est, len(sample)),
    )


def _check_independence(cons: Construction, sample: list) -> dict:
    want = len(cons.family)
    for v, _ in sample:
        r = independence_rank_at(cons.family, v)
        if r == want:
            return _row(
                "independence_generic",
                "sampled-pass",
                detail="values span rank %d at a sampled point" % want,
            )
    return _row(
        "independence_generic",
        "fail",
        detail="rank %s < %d at every sampled point" % (r, want),
        witness=v,
    )


def _check_witness_exact(cons: Construction) -> dict:
    r = rank(values_matrix_at(cons.family, cons.witness))
    want = len(cons.family)
    if r != want:
        return _row(
            "independence_witness_exact",
            "fail",
            detail="rank %d != %d at the designated witness" % (r, want),
            witness=cons.witness,
        )
    return _row(
        "independence_witness_exact",
        "pass",
        detail="rank %d at the designated exact witness point" % want,
    )


def _check_kernel_span(cons: Construction, sample: list) -> dict:
    rep_report = kernel_span_check(cons.family, sample)
    if not rep_report.contained:
        return _row("kernel_span", "fail", detail="value outside the stabiliser", witness=rep_report.witness)
    if not rep_report.spans_generically:
        return _row(
            "kernel_span",
            "fail",
            detail="values do not span the stabiliser at minimal-dimension points",
            witness=rep_report.samples,
        )
    return _row(
        "kernel_span",
        "sampled-pass",
        detail="values span the %d-dim stabiliser at all %d generic samples"
        % (rep_report.generic_stab_dim, len(sample)),
    )


def _check_degree_audit(cons: Construction) -> dict:
    exp = cons.expected
    audit = degree_audit(exp.degrees, exp.dim_v, exp.quotient_degree)
    if audit.verdict != exp.audit_verdict:
        return _row(
            "degree_audit",
            "fail",
            detail="computed %s, expected %s" % (audit.verdict, exp.audit_verdict),
            witness={"sum_degrees": audit.total, "codim": audit.codim},
        )
    detail = "sum deg = %d, dim V - q = %d (%s" % (audit.total, audit.codim, audit.verdict)
    if audit.verdict == "surplus":
        detail += " %d" % audit.surplus
    detail += ")"
    return _row("degree_audit", "pass", detail=detail)


def _check_bookkeeping(cons: Construction, q: SemidirectProduct) -> dict:
    exp = cons.expected
    if exp.audit_verdict != "equality":
        audit = degree_audit(exp.degrees, exp.dim_v, exp.quotient_degree)
        return _row(
            "bq_bookkeeping",
            "skipped",
            detail="identity applies to equality entries; this instantiation has surplus %d"
            % audit.surplus,
        )
    lhs = exp.quotient_degree + sum(d + 1 for d in exp.degrees)
    rhs = exp.dim_v + exp.rank
    if lhs != rhs:
        return _row(
            "bq_bookkeeping",
            "fail",
            detail="q + sum(deg+1) = %d != dim V + l = %d" % (lhs, rhs),
        )
    return _row("bq_bookkeeping", "pass", detail="q + sum(deg+1) = %d = dim V + l" % lhs)


def _check_kirillov_even(q: SemidirectProduct, est) -> dict:
    """The Kirillov form's rank is even at every point the index estimate ranked."""
    for eta, r in est.ranks:
        if r % 2:
            return _row("kirillov_even", "fail", witness=DualPoint(eta[: q.dim_g], eta[q.dim_g :]))
    return _row(
        "kirillov_even", "sampled-pass", detail="form rank even at %d sampled points" % len(est.ranks)
    )


def _check_index(est) -> dict:
    if est.stabilised:
        return _row(
            "index_stabilized",
            "sampled-pass",
            detail="ind q = %d, stable across two disjoint batches" % est.index,
        )
    return _row(
        "index_stabilized",
        "fail",
        detail="index estimate did not stabilise (max rank %d)" % est.max_rank,
    )


def _check_b_of_q(q: SemidirectProduct, cons: Construction, est) -> dict:
    b = Fraction(q.dim + est.index, 2)
    want = cons.expected.dim_v + cons.expected.rank
    if b != want:
        return _row(
            "b_of_q",
            "fail",
            detail="(dim q + ind q)/2 = %s != dim V + l = %d" % (b, want),
        )
    return _row("b_of_q", "sampled-pass", detail="(dim q + ind q)/2 = %s = dim V + l" % b)


def _check_rais(q: SemidirectProduct, cfg: RunConfig, sample: list, est) -> dict:
    rep = rais_consistency(q, sample, est, seed=cfg.seed, bound=cfg.bound)
    if not rep.consistent:
        return _row(
            "rais_consistency",
            "fail",
            witness={
                "dim_v": rep.dim_v,
                "dim_g": rep.dim_g,
                "stab_dim": rep.stab_dim,
                "stab_index": rep.stab_index,
                "index_q": rep.index_q,
            },
        )
    detail = "ind q = dim V - dim g + dim g_x + ind g_x = %d (stabiliser %s)" % (
        rep.index_q,
        "abelian" if rep.stab_abelian else "non-abelian",
    )
    verdict = "sampled-pass" if rep.stabilised else "fail"
    return _row("rais_consistency", verdict, detail=detail)


def _table_comparison(cons: Construction, entry_id: str, params: dict) -> tuple[list, dict]:
    rows = rows_for_entry(entry_id)
    comparisons = []
    mismatch = False
    for row, link in rows:
        item = {"row": row.id}
        if link.pinned is not None and link.pinned != params:
            item["status"] = "skipped"
            item["reason"] = "row is pinned to %s" % _param_str(link.pinned)
            comparisons.append(item)
            continue
        below = [
            "%s >= %d" % (k, v) for k, v in (link.minimum or {}).items() if params.get(k, v) < v
        ]
        if below:
            item["status"] = "skipped"
            item["reason"] = "row applies for %s" % ", ".join(below)
            comparisons.append(item)
            continue
        want = link.values(params) if link.values else {}
        got_map = {
            "l": cons.expected.rank,
            "dim_v": cons.expected.dim_v,
            "q": cons.expected.quotient_degree,
            "quotient_dim": cons.expected.quotient_dim,
        }
        compared = {}
        bad = []
        for key, val in want.items():
            compared[key] = {"printed": val, "computed": got_map[key]}
            if got_map[key] != val:
                bad.append(key)
        item["compared"] = compared
        if bad:
            item["status"] = "mismatch"
            item["reason"] = "printed values differ: %s" % ", ".join(bad)
            mismatch = True
        else:
            item["status"] = "match"
        comparisons.append(item)
    if not comparisons:
        check = _row("table_row_comparison", "skipped", detail="no table rows reference this entry")
    elif mismatch:
        check = _row(
            "table_row_comparison",
            "fail",
            detail="printed table values differ from computed ones",
            witness=[c for c in comparisons if c["status"] == "mismatch"],
        )
    else:
        n_match = sum(1 for c in comparisons if c["status"] == "match")
        n_skip = len(comparisons) - n_match
        detail = "%d row(s) match" % n_match
        if n_skip:
            detail += ", %d skipped at these parameters" % n_skip
        check = _row("table_row_comparison", "pass", detail=detail)
    return comparisons, check


def _param_str(params: dict) -> str:
    return ", ".join("%s=%s" % (k, params[k]) for k in sorted(params)) or "-"


def _timed(cfg: RunConfig, fn, *args, **kw) -> dict:
    if not cfg.timings:
        return fn(*args, **kw)
    t0 = time.perf_counter_ns()
    out = fn(*args, **kw)
    out["runtime_ms"] = round((time.perf_counter_ns() - t0) / 1e6, 3)
    return out


def run_entry(name: str, cfg: RunConfig) -> dict:
    entry_id = resolve_id(name)
    entry = get_entry(entry_id)
    overrides = {
        k: v for k, v in cfg.override_dict().items() if k in {p.name for p in entry.params}
    }
    params = {p.name: overrides.get(p.name, p.default) for p in entry.params}
    report = {
        "id": entry_id,
        "kind": "entry",
        "title": entry.title,
        "parameters": dict(sorted(params.items())),
        "checks": [],
        "table_row_comparison": [],
    }
    try:
        cons = build_construction(entry, overrides)
    except ParameterError as err:
        report["checks"].append(_row("construction_audit", "skipped", detail=str(err)))
        return report
    q = SemidirectProduct(cons.module, name=entry_id)
    ctx = cfg.ctx
    checks = report["checks"]

    checks.append(_timed(cfg, _check_construction_audit, cons, entry_id, cons.params))
    checks.append(_timed(cfg, _check_jacobi, q))
    sample = None

    def gs():
        # the one sample of V that every row about the generic stabiliser reads
        nonlocal sample
        rng = derive_rng(cfg.seed, "gs", entry_id)
        sample = stabiliser_sample(cons.module, rng, cfg.samples, cfg.bound)
        return _check_gs(cons, sample)

    checks.append(_timed(cfg, gs))
    checks.append(_timed(cfg, _check_quotient_estimate, cons, sample))
    family = cons.family

    def identity(name, build, *args):
        # a row of identity checks: timed, and skipped if exact mode is refused
        checks.append(_timed(cfg, _identity_row, name, build, *args))

    identity("kernel_phi", _aggregate, family, lambda F: kernel_phi_check(F, ctx))
    identity(
        "equivariance_scope", _aggregate, family,
        lambda F: equivariance_check(F, cons.scope, ctx), "scope: " + cons.scope_label,
    )

    if cons.complement is not None:

        def complement_fails(name):
            label = cons.complement_label
            for F in family:
                if equivariance_check(F, cons.complement, ctx).verdict != "proved_nonzero":
                    detail = "%s is unexpectedly equivariant on %s directions" % (F.name, label)
                    return _row(name, "fail", detail=detail)
            detail = "every covariant fails equivariance on %s directions, with witnesses" % label
            return _row(name, "pass", detail=detail)

        identity("equivariance_complement_fails", complement_fails)

    for extra in cons.extras:
        identity(extra.name, _zero_row, lambda run=extra.run: run(ctx))

    checks.append(_timed(cfg, _check_independence, cons, sample))
    if cons.witness is not None:
        checks.append(_timed(cfg, _check_witness_exact, cons))
    if cons.kernel_span:
        checks.append(_timed(cfg, _check_kernel_span, cons, sample))
    checks.append(_timed(cfg, _check_degree_audit, cons))

    identity("lift_invariance", _aggregate, family, lambda F: lift_invariance_check(q, F, ctx))
    identity("poisson_commute", _zero_row, lambda: poisson_commute_check(q, family, ctx))
    est = None

    def index_stabilized():
        nonlocal est
        est = index_estimate(q.lie, seed=cfg.seed, samples=cfg.samples, bound=cfg.bound)
        return _check_index(est)

    # kirillov_even reads the ranks of the index sample; its row comes first
    # and the ranking is timed under index_stabilized
    index_row = _timed(cfg, index_stabilized)
    checks.append(_timed(cfg, _check_kirillov_even, q, est))
    checks.append(index_row)
    checks.append(_timed(cfg, _check_b_of_q, q, cons, est))
    checks.append(_timed(cfg, _check_rais, q, cfg, sample, est))
    checks.append(_timed(cfg, _check_bookkeeping, cons, q))

    comparisons, table_check = _table_comparison(cons, entry_id, cons.params)
    report["table_row_comparison"] = comparisons
    checks.append(table_check)

    if cfg.negative_controls:
        for c in cons.controls:
            checks.append(_identity_row(
                c.name, _zero_row, lambda F=c.covariant: kernel_phi_check(F, ctx), c.reason, True
            ))

    return report


def run_table_row(row_id: str, cfg: RunConfig) -> dict:
    row = get_row(row_id)
    printed = dict(row.printed)
    report = {
        "id": row.id,
        "kind": "table",
        "table": row.table,
        "printed": printed,
        "parameters": {},
        "checks": [],
    }
    spec = row.module_spec
    if spec is None:
        detail = "printed data only; no executable module"
        if row.note:
            detail += " (%s)" % row.note
        report["checks"].append(_row("metadata", "skipped", detail=detail))
        return report
    params = dict(spec.default_params)
    report["parameters"] = dict(sorted(params.items()))
    rep = spec.build(params)
    expected = spec.expected(params)
    checks = report["checks"]
    line = find_line("table", row.id, params)
    frozen_note = (
        "matches the frozen manifest line" if line else "no frozen manifest line for these parameters"
    )
    problems = []
    if rep.dim_v != expected["dim_v"]:
        problems.append("module dimension %d != printed %d" % (rep.dim_v, expected["dim_v"]))
    if line:
        for key in ("dim_v", "gs", "quotient_dim"):
            if key in line.values and key in expected and line.values[key] != expected[key]:
                problems.append(
                    "manifest %s=%s but table prints %s" % (key, line.values[key], expected[key])
                )
    if problems:
        checks.append(_row("construction_audit", "fail", witness=problems))
        return report
    checks.append(
        _row("construction_audit", "pass", detail="dim V = %d; %s" % (rep.dim_v, frozen_note))
    )
    # one orbit-map rank per sampled point: the orbit rank at v is
    # dim g - dim g_v, so the quotient estimate also gives the generic gs
    est = quotient_dim_estimate(rep, seed=cfg.seed, samples=cfg.samples, bound=cfg.bound)
    gs = rep.algebra.dim - rep.dim_v + est
    if gs != expected["gs"]:
        detail = "sampled stabiliser dim %d != printed %d" % (gs, expected["gs"])
        checks.append(_row("gs_dimension_toral", "fail", detail=detail))
    else:
        detail = "generic stabiliser dim %d" % gs
        checks.append(_row("gs_dimension_toral", "sampled-pass", detail=detail))
    if "quotient_dim" in expected:
        if est != expected["quotient_dim"]:
            detail = "sampled estimate %d != printed %d" % (est, expected["quotient_dim"])
            checks.append(_row("quotient_dim_estimate", "fail", detail=detail))
        else:
            detail = "dim V - max orbit rank = %d" % est
            checks.append(_row("quotient_dim_estimate", "sampled-pass", detail=detail))
    return report


def default_targets() -> list[str]:
    return [e.id for e in all_entries()] + [r.id for r in all_rows()]


def run_target(name: str, cfg: RunConfig) -> dict:
    if name.startswith("table"):
        return run_table_row(name, cfg)
    return run_entry(name, cfg)


def _worker(args) -> tuple[int, dict]:
    pos, name, cfg = args
    return pos, run_target(name, cfg)


def run_suite(cfg: RunConfig) -> Report:
    if cfg.entries:
        targets = []
        for name in cfg.entries:
            canonical = name if name.startswith("table") else resolve_id(name)
            if canonical.startswith("table"):
                get_row(canonical)  # raises on unknown row id
            if canonical not in targets:
                targets.append(canonical)
    else:
        targets = default_targets()
    config_dict = {
        "entries": list(targets),
        "seed": cfg.seed,
        "mode": cfg.mode,
        "samples": cfg.samples,
        "bound": cfg.bound,
        "negative_controls": cfg.negative_controls,
    }
    overrides = cfg.override_dict()
    if overrides:
        config_dict["parameters"] = dict(sorted(overrides.items()))
    jobs = [(i, name, cfg) for i, name in enumerate(targets)]
    if cfg.jobs > 1 and len(jobs) > 1:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(min(cfg.jobs, len(jobs))) as pool:
            results = pool.map(_worker, jobs)
    else:
        results = [_worker(j) for j in jobs]
    ordered = [r for _, r in sorted(results, key=lambda t: t[0])]
    return Report(config=config_dict, entries=ordered)


# -- output formats -----------------------------------------------------------


def to_json(report: Report) -> str:
    payload = {"config": report.config, "entries": report.entries}
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


_MARK = {"pass": "PASS", "sampled-pass": "pass*", "fail": "FAIL", "skipped": "skip"}


def to_text(report: Report) -> str:
    lines = []
    cfg = report.config
    lines.append(
        "verification run: seed %d, mode %s, samples %d" % (cfg["seed"], cfg["mode"], cfg["samples"])
    )
    lines.append("")
    tables_seen = []
    for entry in report.entries:
        if entry["kind"] == "table":
            tables_seen.append(entry)
            continue
        params = _param_str(entry["parameters"])
        lines.append("%s (%s)  %s" % (entry["id"], params, entry.get("title", "")))
        for check in entry["checks"]:
            mark = _MARK[check["verdict"]]
            detail = check.get("detail", "")
            suffix = "  - %s" % detail if detail else ""
            ms = check.get("runtime_ms")
            if ms is not None:
                suffix += "  [%.3f ms]" % ms
            lines.append("  [%5s] %-32s%s" % (mark, check["name"], suffix))
        for item in entry.get("table_row_comparison", []):
            if item["status"] == "match":
                cols = ", ".join(
                    "%s: %s" % (k, v["printed"]) for k, v in item.get("compared", {}).items()
                )
                lines.append("    row %-12s match (%s)" % (item["row"], cols))
            else:
                lines.append(
                    "    row %-12s %s (%s)" % (item["row"], item["status"], item.get("reason", ""))
                )
        lines.append("")
    if tables_seen:
        by_table: dict[int, list] = {}
        for entry in tables_seen:
            by_table.setdefault(entry["table"], []).append(entry)
        for tno in sorted(by_table):
            lines.append("table %d: %s" % (tno, TABLE_CAPTIONS[tno]))
            for entry in by_table[tno]:
                printed = entry["printed"]
                cols = " | ".join(str(v) for _, v in printed.items())
                verdicts = ", ".join(
                    "%s %s" % (c["name"], _MARK[c["verdict"]]) for c in entry["checks"]
                )
                lines.append("  %-12s %s" % (entry["id"], cols))
                lines.append("      %s" % verdicts)
            lines.append("")
    return "\n".join(lines)
