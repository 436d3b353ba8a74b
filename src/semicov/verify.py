"""Check plans, reports and serialization for catalog verification runs.

``run_suite`` executes, per selected target, the full plan of identity
checks (construction audit, Jacobi, kernel/equivariance, span and weight
structure, degree audits, lifts, Poisson brackets, index bookkeeping and
table comparisons) and assembles a deterministic report.  Nothing aborts on
a failed check; every failure carries a re-evaluatable witness.  Once the
exhaustive jacobi row passes, ``equivariance_scope`` is proved on Lie
generators of the scope (``LieAlgebra.generating_subset``: n root vectors
on each sl_n factor), and again on the whole scope on a nonzero defect.
The stabiliser rows read t = g_v1 once it is proved generic, and an abelian
t stops the index batches at the Rais rank 2(dim g - dim t).
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
)
from .lie import StabiliserSample, is_abelian, stabiliser_sample
from .linalg import rank  # noqa: F401 (re-export; the benchmark's tracer patches it)
from .poly import CheckContext, CutoffExceeded
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
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1, got %d" % self.jobs)
        self.ctx  # bad knobs raise here, before any target runs;
        self.targets  # so do unknown ids and overrides no entry target takes

    @cached_property
    def targets(self) -> tuple[str, ...]:
        """Canonical target ids in the order given, each once; the default
        suite when ``entries`` is empty.  Table rows keep their pinned
        parameters, so an override must be taken by some entry target."""
        names = self.entries or default_targets()
        targets = tuple(dict.fromkeys(n if n.startswith("table") else resolve_id(n) for n in names))
        for t in targets:
            if t.startswith("table"):
                get_row(t)  # raises on an unknown row id
        taken = {p.name for t in targets if not t.startswith("table") for p in get_entry(t).params}
        unused = sorted({k for k, _ in self.overrides} - taken)
        if unused:
            raise ValueError("no target takes parameter(s) %s" % ", ".join(unused))
        return targets

    @property
    def ctx(self) -> CheckContext:
        """The knobs every identity check of the run reads."""
        return CheckContext(self.mode, self.seed, self.samples, self.bound)


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
    """Exact-arithmetic objects to JSON-stable values; rationals as 'p/q',
    polynomials by ``str``."""
    if obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, DualPoint):
        return {"xi": jsonable(obj.xi), "v": jsonable(obj.v)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    return str(obj)


_VERDICT = {"proved_zero": "pass", "sampled_zero": "sampled-pass", "proved_nonzero": "fail"}


def _row(name: str, verdict: str, detail: str = "", witness=None) -> dict:
    out = {"name": name, "verdict": verdict}
    if detail:
        out["detail"] = detail
    if witness is not None:
        out["witness"] = jsonable(witness)
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
    sampled = [(label, r) for label, r in results if r.verdict == "sampled_zero"]
    exact = [label for label, r in results if r.verdict != "sampled_zero"]
    detail = "%d covariants; " % len(results)
    if not sampled:
        detail += "exact"
    else:
        trials = min(r.trials for _, r in sampled)
        if exact:
            # a mixed row names the covariants resolved each way
            detail += "exact: %s; sampled, >=%d trials: %s" % (
                ", ".join(exact), trials, ", ".join(label for label, _ in sampled)
            )
        else:
            detail += "sampled, >=%d trials each" % trials
    if detail_extra:
        detail += "; " + detail_extra
    return _row(name, "sampled-pass" if sampled else "pass", detail=detail)


# -- per-entry plan -----------------------------------------------------------


def _audit_row(
    kind: str, target: str, params: dict, problems: list, computed, noun: str, detail: str
) -> dict:
    """The construction_audit row: the caller's ``problems``, then each
    ``(key, value)`` of ``computed`` that the frozen manifest line of
    ``target`` at ``params`` states differently ("manifest K=W but <noun> G")."""
    line = find_line(kind, target, params)
    if line is None:
        frozen = "no frozen manifest line for these parameters"
    else:
        frozen = "matches the frozen manifest line"
        for key, got in computed:
            want = line.values.get(key)
            if want is not None and want != got:
                problems.append("manifest %s=%s but %s %s" % (key, want, noun, got))
    if problems:
        return _row("construction_audit", "fail", witness=problems)
    return _row("construction_audit", "pass", detail="%s; %s" % (detail, frozen))


def _check_construction_audit(cons: Construction) -> dict:
    exp = cons.expected
    problems = []
    if cons.module.dim_v != exp.dim_v:
        problems.append("module dimension %d != expected %d" % (cons.module.dim_v, exp.dim_v))
    if len(cons.family) != exp.rank:
        problems.append("family size %d != rank %d" % (len(cons.family), exp.rank))
    degs = tuple(F.degree for F in cons.family)
    if degs != exp.degrees:
        problems.append("degrees %s != expected %s" % (degs, exp.degrees))
    want = exp.dim_v - cons.algebra.dim + exp.rank
    if exp.quotient_dim != want:
        problems.append("quotient dim %d != dim V - dim g + l = %d" % (exp.quotient_dim, want))
    computed = [("dim_v", exp.dim_v), ("l", exp.rank), ("q", exp.quotient_degree), ("degrees", exp.degrees),
                ("audit", exp.audit_verdict), ("quotient_dim", exp.quotient_dim)]
    degrees = ",".join(str(d) for d in exp.degrees)
    detail = "dim V=%d, l=%d, q=%d, degrees=%s" % (exp.dim_v, exp.rank, exp.quotient_degree, degrees)
    return _audit_row("check", cons.entry_id, cons.params, problems, computed, "computed", detail)


def _check_jacobi(q: SemidirectProduct) -> dict:
    ok, witness = q.lie.check_jacobi()
    if not ok:
        return _row("jacobi", "fail", witness=witness)
    return _row("jacobi", "pass", detail="all %d^3 basis triples, exact" % q.dim)


def _check_gs(cons: Construction, sample: StabiliserSample) -> dict:
    minimal = sample.minimal
    best = minimal[0][1].dim
    if best != cons.expected.rank:
        detail = "sampled generic stabiliser dim %s != %d" % (best, cons.expected.rank)
        return _row("gs_dimension_toral", "fail", detail=detail, witness=sample.v1)
    for k, (v, s) in enumerate(minimal):
        try:
            # the first is the generic stabiliser, whose test every row reads
            if not (sample.abelian if k == 0 else is_abelian(cons.module.algebra, s)):
                return _row("gs_dimension_toral", "fail", witness=("non-abelian stabiliser", v))
        except ValueError:
            return _row("gs_dimension_toral", "fail", witness=("stabiliser not closed under bracket", v))
    detail = "dim %d, abelian at all %d minimal-dimension samples" % (best, sample.samples)
    return _row("gs_dimension_toral", "sampled-pass", detail=detail)


def _check_quotient_estimate(cons: Construction, sample: StabiliserSample) -> dict:
    # the orbit rank at v is dim g - dim g_v
    est = cons.module.dim_v - cons.algebra.dim + sample.minimal[0][1].dim
    return _quotient_row(est, cons.expected.quotient_dim, "expected", " over %d samples" % sample.samples)


def _quotient_row(est: int, want: int, noun: str, tail: str = "") -> dict:
    if est != want:
        detail = "sampled estimate %d != %s %d" % (est, noun, want)
        return _row("quotient_dim_estimate", "fail", detail=detail)
    return _row("quotient_dim_estimate", "sampled-pass", detail="dim V - max orbit rank = %d%s" % (est, tail))


def _check_independence(cons: Construction, sample: StabiliserSample) -> dict:
    want = len(cons.family)
    for k in range(sample.samples):
        v = sample.points[k] if k else sample.v1  # the others are drawn only if v1 falls short
        r = independence_rank_at(cons.family, v)
        if r == want:
            detail = "values span rank %d at a sampled point" % want
            return _row("independence_generic", "sampled-pass", detail=detail)
    detail = "rank %s < %d at every sampled point" % (r, want)
    return _row("independence_generic", "fail", detail=detail, witness=v)


def _check_witness_exact(cons: Construction) -> dict:
    r = independence_rank_at(cons.family, cons.witness)
    want = len(cons.family)
    if r != want:
        detail = "rank %d != %d at the designated witness" % (r, want)
        return _row("independence_witness_exact", "fail", detail=detail, witness=cons.witness)
    detail = "rank %d at the designated exact witness point" % want
    return _row("independence_witness_exact", "pass", detail=detail)


def _check_kernel_span(cons: Construction, sample: StabiliserSample) -> dict:
    # proved: dim g_v >= dim t, equal at v1, so values of rank dim t everywhere fix the outcome
    rep_report = sample.proved and kernel_span_check(cons.family, [(v, sample.t.dim) for v in sample.points])
    if not (rep_report and rep_report.contained and rep_report.spans_generically):
        rep_report = kernel_span_check(cons.family, [(v, s.dim) for v, s in sample.pairs])
    if not rep_report.contained:
        return _row("kernel_span", "fail", detail="value outside the stabiliser", witness=rep_report.witness)
    if not rep_report.spans_generically:
        detail = "values do not span the stabiliser at minimal-dimension points"
        return _row("kernel_span", "fail", detail=detail, witness=rep_report.samples)
    detail = "values span the %d-dim stabiliser at all %d generic samples" % (
        rep_report.generic_stab_dim, sample.samples)
    return _row("kernel_span", "sampled-pass", detail=detail)


def _check_degree_audit(cons: Construction) -> dict:
    exp = cons.expected
    audit = degree_audit(exp.degrees, exp.dim_v, exp.quotient_degree)
    if audit.verdict != exp.audit_verdict:
        detail = "computed %s, expected %s" % (audit.verdict, exp.audit_verdict)
        witness = {"sum_degrees": audit.total, "codim": audit.codim}
        return _row("degree_audit", "fail", detail=detail, witness=witness)
    detail = "sum deg = %d, dim V - q = %d (%s" % (audit.total, audit.codim, audit.verdict)
    if audit.verdict == "surplus":
        detail += " %d" % audit.surplus
    detail += ")"
    return _row("degree_audit", "pass", detail=detail)


def _check_bookkeeping(cons: Construction) -> dict:
    exp = cons.expected
    if exp.audit_verdict != "equality":
        audit = degree_audit(exp.degrees, exp.dim_v, exp.quotient_degree)
        detail = "identity applies to equality entries; this instantiation has surplus %d" % audit.surplus
        return _row("bq_bookkeeping", "skipped", detail=detail)
    lhs = exp.quotient_degree + sum(d + 1 for d in exp.degrees)
    rhs = exp.dim_v + exp.rank
    if lhs != rhs:
        return _row("bq_bookkeeping", "fail", detail="q + sum(deg+1) = %d != dim V + l = %d" % (lhs, rhs))
    return _row("bq_bookkeeping", "pass", detail="q + sum(deg+1) = %d = dim V + l" % lhs)


def _check_kirillov_even(q: SemidirectProduct, est) -> dict:
    """The Kirillov form's rank is even at every point the index estimate
    ranked.  The detail counts every point drawn: a skew form has even rank
    everywhere, and ``skew_rank`` returns only even ranks, so a point left
    unranked under a proved bound adds no evidence."""
    for eta, r in est.ranks:
        if r % 2:
            return _row("kirillov_even", "fail", witness=DualPoint(eta[: q.dim_g], eta[q.dim_g :]))
    detail = "form rank even at %d sampled points" % est.drawn
    return _row("kirillov_even", "sampled-pass", detail=detail)


def _check_index(est) -> dict:
    if est.stabilised:
        detail = "ind q = %d, stable across two disjoint batches" % est.index
        return _row("index_stabilized", "sampled-pass", detail=detail)
    detail = "index estimate did not stabilise (max rank %d)" % est.max_rank
    return _row("index_stabilized", "fail", detail=detail)


def _check_b_of_q(q: SemidirectProduct, cons: Construction, est) -> dict:
    b = Fraction(q.dim + est.index, 2)
    want = cons.expected.dim_v + cons.expected.rank
    if b != want:
        return _row("b_of_q", "fail", detail="(dim q + ind q)/2 = %s != dim V + l = %d" % (b, want))
    return _row("b_of_q", "sampled-pass", detail="(dim q + ind q)/2 = %s = dim V + l" % b)


def _check_rais(q: SemidirectProduct, ctx: CheckContext, sample: StabiliserSample, est) -> dict:
    rep = rais_consistency(q, sample.minimal[0][1], sample.abelian, est, ctx)
    if not rep.consistent:
        keys = ("dim_v", "dim_g", "stab_dim", "stab_index", "index_q")
        return _row("rais_consistency", "fail", witness={k: getattr(rep, k) for k in keys})
    stab = "abelian" if rep.stab_abelian else "non-abelian"
    detail = "ind q = dim V - dim g + dim g_x + ind g_x = %d (stabiliser %s)" % (rep.index_q, stab)
    verdict = "sampled-pass" if rep.stabilised else "fail"
    return _row("rais_consistency", verdict, detail=detail)


def _table_comparison(report: dict, cons: Construction) -> dict:
    """The table_row_comparison row; the per-row items go to ``report``."""
    params = cons.params
    comparisons = report["table_row_comparison"]
    mismatch = False
    for row, link in rows_for_entry(cons.entry_id):
        item = {"row": row.id}
        if link.pinned is not None and link.pinned != params:
            item["status"] = "skipped"
            item["reason"] = "row is pinned to %s" % _param_str(link.pinned)
            comparisons.append(item)
            continue
        below = ["%s >= %d" % (k, v) for k, v in (link.minimum or {}).items() if params.get(k, v) < v]
        if below:
            item["status"] = "skipped"
            item["reason"] = "row applies for %s" % ", ".join(below)
            comparisons.append(item)
            continue
        want = link.values(params) if link.values else {}
        exp = cons.expected
        got_map = {"l": exp.rank, "dim_v": exp.dim_v, "q": exp.quotient_degree,
                   "quotient_dim": exp.quotient_dim}
        item["compared"] = {key: {"printed": val, "computed": got_map[key]} for key, val in want.items()}
        bad = [key for key, val in want.items() if got_map[key] != val]
        if bad:
            item["status"] = "mismatch"
            item["reason"] = "printed values differ: %s" % ", ".join(bad)
            mismatch = True
        else:
            item["status"] = "match"
        comparisons.append(item)
    if not comparisons:
        return _row("table_row_comparison", "skipped", detail="no table rows reference this entry")
    if mismatch:
        witness = [c for c in comparisons if c["status"] == "mismatch"]
        detail = "printed table values differ from computed ones"
        return _row("table_row_comparison", "fail", detail=detail, witness=witness)
    n_match = sum(1 for c in comparisons if c["status"] == "match")
    n_skip = len(comparisons) - n_match
    detail = "%d row(s) match" % n_match
    if n_skip:
        detail += ", %d skipped at these parameters" % n_skip
    return _row("table_row_comparison", "pass", detail=detail)


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
    entry = get_entry(name)
    entry_id = entry.id
    params = entry.resolve(dict(cfg.overrides))
    report = {
        "id": entry_id,
        "kind": "entry",
        "title": entry.title,
        "parameters": dict(sorted(params.items())),
        "checks": [],
        "table_row_comparison": [],
    }
    try:
        cons = build_construction(entry, params)
    except ParameterError as err:
        report["checks"].append(_row("construction_audit", "skipped", detail=str(err)))
        return report
    q = SemidirectProduct(cons.module, name=entry_id)
    ctx = cfg.ctx
    checks = report["checks"]

    checks.append(_timed(cfg, _check_construction_audit, cons))
    checks.append(_timed(cfg, _check_jacobi, q))
    jacobi_ok = checks[-1]["verdict"] == "pass"
    sample = None

    def gs():
        # the one sample of V that every row about the generic stabiliser
        # reads; once t = g_v1 is proved generic, no other stabiliser is computed
        nonlocal sample
        sample = stabiliser_sample(cons.module, ctx, "gs", entry_id)
        return _check_gs(cons, sample)

    checks.append(_timed(cfg, gs))
    checks.append(_timed(cfg, _check_quotient_estimate, cons, sample))
    family = cons.family

    def identity(name, build, *args):
        # a row of identity checks: timed, and skipped if exact mode is refused
        checks.append(_timed(cfg, _identity_row, name, build, *args))

    identity("kernel_phi", _aggregate, family, lambda F: kernel_phi_check(F, ctx))

    def equivariance(name):
        # once the jacobi row has proved rho and ad to be representations,
        # x -> x*F is one too, so {x : x*F = 0} is a subalgebra and Lie
        # generators of the scope, certified once for the family, suffice.
        # Without that premise or a certificate, and on any nonzero defect,
        # the whole scope is scanned
        scope = range(q.dim_g) if cons.scope is None else cons.scope
        gens = q.g.generating_subset(scope) if jacobi_ok else None

        def equivariant(F):
            if gens is not None:
                res = equivariance_check(F, gens, ctx)
                if res.is_zero:
                    return res
            return equivariance_check(F, cons.scope, ctx)

        return _aggregate(name, family, equivariant, "scope: " + cons.scope_label)

    identity("equivariance_scope", equivariance)

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
        # Rais (C. R. Acad. Sci. Paris 287 (1978) 195-197): a proved abelian generic stabiliser t
        # gives ind q = dim V - dim g + 2 dim t, so no Kirillov form ranks above 2(dim g - dim t)
        nonlocal est
        rais = 2 * (q.dim_g - sample.t.dim) if sample.proved and sample.abelian else None
        est = index_estimate(q.lie, ctx, rais)
        return _check_index(est)

    # kirillov_even reads the ranks of the index sample; its row comes first
    # and the ranking is timed under index_stabilized
    index_row = _timed(cfg, index_stabilized)
    checks.append(_timed(cfg, _check_kirillov_even, q, est))
    checks.append(index_row)
    checks.append(_timed(cfg, _check_b_of_q, q, cons, est))
    checks.append(_timed(cfg, _check_rais, q, ctx, sample, est))
    checks.append(_timed(cfg, _check_bookkeeping, cons))

    checks.append(_timed(cfg, _table_comparison, report, cons))

    if cfg.negative_controls:
        for c in cons.controls:
            identity(
                c.name, _zero_row, lambda F=c.covariant: kernel_phi_check(F, ctx), c.reason, True
            )

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

    def audit():
        problems = []
        if rep.dim_v != expected["dim_v"]:
            problems.append("module dimension %d != printed %d" % (rep.dim_v, expected["dim_v"]))
        computed = [(k, expected[k]) for k in ("dim_v", "gs", "quotient_dim") if k in expected]
        detail = "dim V = %d" % rep.dim_v
        return _audit_row("table", row.id, params, problems, computed, "table prints", detail)

    checks.append(_timed(cfg, audit))
    if checks[-1]["verdict"] == "fail":
        return report
    est = None

    def gs():
        # the orbit rank at v is dim g - dim g_v, so the quotient estimate
        # also gives the generic gs; the estimate is timed under this row
        nonlocal est
        est = quotient_dim_estimate(rep, cfg.ctx)
        gs = rep.algebra.dim - rep.dim_v + est
        if gs != expected["gs"]:
            detail = "sampled stabiliser dim %d != printed %d" % (gs, expected["gs"])
            return _row("gs_dimension_toral", "fail", detail=detail)
        return _row("gs_dimension_toral", "sampled-pass", detail="generic stabiliser dim %d" % gs)

    checks.append(_timed(cfg, gs))
    if "quotient_dim" in expected:
        checks.append(_timed(cfg, _quotient_row, est, expected["quotient_dim"], "printed"))
    return report


def default_targets() -> list[str]:
    return [e.id for e in all_entries()] + [r.id for r in all_rows()]


def run_target(name: str, cfg: RunConfig) -> dict:
    if name.startswith("table"):
        return run_table_row(name, cfg)
    return run_entry(name, cfg)


def run_suite(cfg: RunConfig) -> Report:
    config_dict = {
        "entries": list(cfg.targets),
        "seed": cfg.seed,
        "mode": cfg.mode,
        "samples": cfg.samples,
        "bound": cfg.bound,
        "negative_controls": cfg.negative_controls,
    }
    if cfg.overrides:
        config_dict["parameters"] = dict(sorted(dict(cfg.overrides).items()))
    if cfg.jobs > 1 and len(cfg.targets) > 1:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(min(cfg.jobs, len(cfg.targets))) as pool:
            # in the order of the targets
            results = pool.starmap(run_target, [(name, cfg) for name in cfg.targets])
    else:
        results = [run_target(name, cfg) for name in cfg.targets]
    return Report(config=config_dict, entries=results)


# -- output formats -----------------------------------------------------------


def to_json(report: Report) -> str:
    payload = {"config": report.config, "entries": report.entries}
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


_MARK = {"pass": "PASS", "sampled-pass": "pass*", "fail": "FAIL", "skipped": "skip"}


def _runtime(check: dict) -> str:
    """The ``--timings`` suffix of a check, or nothing without one."""
    ms = check.get("runtime_ms")
    return "" if ms is None else "  [%.3f ms]" % ms


def to_text(report: Report) -> str:
    c = report.config
    lines = ["verification run: seed %d, mode %s, samples %d" % (c["seed"], c["mode"], c["samples"]), ""]
    tables_seen = []
    for entry in report.entries:
        if entry["kind"] == "table":
            tables_seen.append(entry)
            continue
        params = _param_str(entry["parameters"])
        lines.append("%s (%s)  %s" % (entry["id"], params, entry.get("title", "")))
        for check in entry["checks"]:
            detail = check.get("detail", "")
            suffix = ("  - %s" % detail if detail else "") + _runtime(check)
            lines.append("  [%5s] %-32s%s" % (_MARK[check["verdict"]], check["name"], suffix))
        for item in entry.get("table_row_comparison", []):
            if item["status"] == "match":
                cols = ", ".join("%s: %s" % (k, v["printed"]) for k, v in item.get("compared", {}).items())
                lines.append("    row %-12s match (%s)" % (item["row"], cols))
            else:
                lines.append("    row %-12s %s (%s)" % (item["row"], item["status"], item.get("reason", "")))
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
                    "%s %s%s" % (c["name"], _MARK[c["verdict"]], _runtime(c))
                    for c in entry["checks"]
                )
                lines.append("  %-12s %s" % (entry["id"], cols))
                lines.append("      %s" % verdicts)
            lines.append("")
    return "\n".join(lines)
