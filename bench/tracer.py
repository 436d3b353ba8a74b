"""Opt-in tracer that wraps the public functions of each ``semicov`` layer.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces every
binding of a hooked function in every loaded ``semicov`` module and class
(``from .linalg import rank`` leaves a separate ``rank`` attribute in
``verify``, ``semidirect``, ``covariants`` and ``catalog.support``), and
``Tracer.uninstall`` puts the originals back.

Hot leaf calls (``MultiPoly.__mul__`` runs about 1 M times in a ``suite``
pass and 7.7 M times in a ``wide-m2`` pass) only bump a count and a summed
busy time.  Check-level calls into ``covariants``,
``semidirect``, ``lie``, ``catalog`` and ``verify.run_target`` also record a
span (id, parent, name, start, end), kept in memory and written out by
``write_spans``.  Busy time (``_s``) is inclusive and counted once for
recursive calls; ``_calls`` counts every call.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from dataclasses import is_dataclass

perf = time.perf_counter

# (dotted path under semicov, key, kind)
HOOKS = (
    ("poly.MultiPoly.__mul__", "mul", "mul"),
    ("poly.MultiPoly.substitute", "substitute", "leaf"),
    ("poly.MultiPoly.evaluate", "evaluate", "leaf"),
    ("poly.poly_is_zero", "poly_is_zero", "leaf"),
    ("linalg.rank", "rank", "leaf"),
    ("linalg.rank_and_kernel", "rank_and_kernel", "leaf"),
    ("linalg.solve", "solve", "leaf"),
    ("linalg.SpanSolver.coords", "span_coords", "leaf"),
    ("linalg.det", "det", "leaf"),
    ("lie.stabiliser", "stabiliser", "stabiliser"),
    ("lie.LieAlgebra.check_jacobi", "check_jacobi", "span"),
    ("lie.is_abelian", "is_abelian", "leaf"),
    ("semidirect.index_estimate", "index_estimate", "span"),
    ("semidirect.kirillov_rank", "kirillov_rank", "leaf"),
    ("semidirect.rais_consistency", "rais_consistency", "span"),
    ("semidirect.SemidirectProduct.__init__", "product_build", "span"),
    ("covariants.kernel_phi_check", "kernel_phi_check", "span"),
    ("covariants.equivariance_check", "equivariance_check", "span"),
    ("covariants.kernel_span_check", "kernel_span_check", "span"),
    ("covariants.lift_invariance_check", "lift_invariance_check", "span"),
    ("covariants.poisson_commute_check", "poisson_commute_check", "span"),
    ("covariants.poisson_pair_at", "poisson_pair_at", "leaf"),
    ("covariants.lift_gradient_at", "lift_gradient_at", "leaf"),
    ("covariants.directional_derivative", "directional_derivative", "leaf"),
    ("covariants.act_on_matrix_polys", "act_on_matrix_polys", "leaf"),
    ("covariants.Covariant.matrix_at", "matrix_at", "matrix_at"),
    ("covariants.resolve_mode", "resolve_mode", "resolve"),
    ("catalog.entries.build_construction", "build_construction", "construction"),
    ("catalog.support.quotient_dim_estimate", "quotient_dim_estimate", "span"),
    ("verify.run_target", "run_target", "target"),
    ("verify.to_json", "to_json", "leaf"),
    ("sampling.rand_vector", "rand_vector", "leaf"),
)

ENTRY_IDS = (
    "ex-adjoint", "ex5.1", "ex5.2", "ex5.3", "ex5.3/gl", "ex6.1",
    "ex6.2", "ex6.3/i", "ex6.3/ii", "ex6.3/iii", "ex6.4",
)
EXTRA_NAMES = (
    "vanishing_top_coefficient", "companion_identity", "weight_relations",
    "span_sl2_module", "block_power_structure", "invariant_degrees",
    "witness_plane", "trace_zero", "det_even", "form_conditions",
    "minor_covariant", "minor_identity",
)


def _metric_name(target: str) -> str:
    return target.replace("/", "-")


# Every per-layer metric, in report order: (name, unit, source).  source is
# ("calls", key), ("busy", key) or a special tag handled in Tracer.metrics.
PER_LAYER = (
    [
        ("mul_calls", "count", ("calls", "mul")),
        ("mul_s", "s", ("busy", "mul")),
        ("mul_terms_out", "count", ("terms_out",)),
    ]
    + [
        (key + suffix, unit, (src, key))
        for key in ("substitute", "evaluate", "poly_is_zero", "rank", "rank_and_kernel",
                    "solve", "span_coords", "det", "stabiliser")
        for suffix, unit, src in (("_calls", "count", "calls"), ("_s", "s", "busy"))
    ]
    + [
        ("stabiliser_distinct_ratio", "ratio", ("distinct_ratio",)),
        ("check_jacobi_s", "s", ("busy", "check_jacobi")),
        ("is_abelian_s", "s", ("busy", "is_abelian")),
        ("index_estimate_calls", "count", ("calls", "index_estimate")),
        ("index_estimate_s", "s", ("busy", "index_estimate")),
        ("kirillov_rank_calls", "count", ("calls", "kirillov_rank")),
        ("kirillov_rank_s", "s", ("busy", "kirillov_rank")),
        ("rais_consistency_s", "s", ("busy", "rais_consistency")),
        ("product_build_s", "s", ("busy", "product_build")),
        ("kernel_phi_check_s", "s", ("busy", "kernel_phi_check")),
        ("equivariance_check_s", "s", ("busy", "equivariance_check")),
        ("lift_invariance_check_s", "s", ("busy", "lift_invariance_check")),
        ("poisson_commute_check_s", "s", ("busy", "poisson_commute_check")),
        ("poisson_pair_at_calls", "count", ("calls", "poisson_pair_at")),
        ("poisson_pair_at_s", "s", ("busy", "poisson_pair_at")),
        ("lift_gradient_at_calls", "count", ("calls", "lift_gradient_at")),
        ("lift_gradient_at_s", "s", ("busy", "lift_gradient_at")),
        ("directional_derivative_calls", "count", ("calls", "directional_derivative")),
        ("act_on_matrix_polys_calls", "count", ("calls", "act_on_matrix_polys")),
        ("act_on_matrix_polys_s", "s", ("busy", "act_on_matrix_polys")),
        ("matrix_at_symbolic_calls", "count", ("calls", "matrix_at_symbolic")),
        ("resolved_exact", "count", ("calls", "resolved_exact")),
        ("resolved_sampled", "count", ("calls", "resolved_sampled")),
        ("build_construction_calls", "count", ("calls", "build_construction")),
        ("build_construction_s", "s", ("busy", "build_construction")),
    ]
    + [("extra_s." + name, "s", ("busy", "extra." + name)) for name in EXTRA_NAMES]
    + [("quotient_dim_estimate_s", "s", ("busy", "quotient_dim_estimate"))]
    + [
        ("run_target_s." + _metric_name(t), "s", ("busy", "run_target." + t))
        for t in ENTRY_IDS + ("tables",)
    ]
    + [
        ("to_json_s", "s", ("busy", "to_json")),
        ("rand_vector_calls", "count", ("calls", "rand_vector")),
        ("traced_wall_s", "s", ("overhead", "traced")),
        ("untraced_wall_s", "s", ("overhead", "untraced")),
        ("trace_overhead_s", "s", ("overhead", "delta")),
    ]
)


def semicov_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "semicov" or name.startswith("semicov.")) and m is not None]


def _owners():
    """Every namespace in semicov that can hold a function binding:
    (label, namespace dict, object to setattr on)."""
    seen = set()
    for mod in semicov_modules():
        if id(mod) not in seen:
            seen.add(id(mod))
            yield mod.__name__, vars(mod), mod
        for val in list(vars(mod).values()):
            if isinstance(val, type) and getattr(val, "__module__", "").startswith("semicov"):
                if id(val) not in seen:
                    seen.add(id(val))
                    yield "%s.%s" % (val.__module__, val.__qualname__), vars(val), val


def _resolve(path: str):
    import semicov

    obj = semicov
    for part in path.split("."):
        obj = getattr(obj, part) if not isinstance(obj, type) else vars(obj)[part]
    return obj


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.depth = defaultdict(int)
        self.terms_out = 0
        self.stab_points: set = set()
        self.stab_reps: dict = {}
        self.spans: list = []
        self.stack: list = []
        self.originals: dict = {}  # key -> original function
        self._patched: list = []  # (owner, attr, original)

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        import semicov  # noqa: F401  (loads every layer)

        for path, key, kind in HOOKS:
            orig = _resolve(path)
            self.originals[key] = orig
            wrapper = getattr(self, "_wrap_" + kind)(key, orig)
            for _, ns, owner in _owners():
                for attr, val in list(ns.items()):
                    if val is orig:
                        setattr(owner, attr, wrapper)
                        self._patched.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def missed(self) -> list[str]:
        """Places in semicov that still hold an original hooked function:
        module and class attributes, module-level containers, the fields of
        module-level dataclass instances, and function defaults/closures."""
        wanted = {id(f): key for key, f in self.originals.items()}
        found = []

        def check(val, where):
            if id(val) in wanted:  # the originals stay alive, so ids are unique
                found.append("%s (%s)" % (where, wanted[id(val)]))

        def inner(val):
            if isinstance(val, dict):
                return list(val.values())
            if isinstance(val, (list, tuple, set, frozenset)):
                return list(val)
            if is_dataclass(val) and not isinstance(val, type):
                return list(vars(val).values())
            if callable(val) and getattr(val, "__module__", "").startswith("semicov"):
                out = list(getattr(val, "__defaults__", None) or ())
                out += list((getattr(val, "__kwdefaults__", None) or {}).values())
                out += [c.cell_contents for c in (getattr(val, "__closure__", None) or ())
                        if c.cell_contents is not None]
                return out
            return []

        for label, ns, _ in _owners():
            for attr, val in list(ns.items()):
                where = "%s.%s" % (label, attr)
                check(val, where)
                for item in inner(val):
                    check(item, where + "[...]")
                    for sub in inner(item) if is_dataclass(item) else ():
                        check(sub, where + "[...].field")
        return found

    # -- wrappers ----------------------------------------------------------

    def _timed(self, key, call):
        """Count, and add busy time once per outermost call."""
        calls, busy, depth = self.calls, self.busy, self.depth

        def run(*a, **k):
            calls[key] += 1
            if depth[key]:
                return call(a, k)
            depth[key] = 1
            t0 = perf()
            try:
                return call(a, k)
            finally:
                busy[key] += perf() - t0
                depth[key] = 0

        return run

    def _span(self, name, fn, a, k, busy_key=None):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        rec = [sid, parent, name, perf(), None]
        self.spans.append(rec)
        self.stack.append(sid)
        try:
            return fn(*a, **k)
        finally:
            self.stack.pop()
            rec[4] = perf()
            if busy_key is not None:
                self.busy[busy_key] += rec[4] - rec[3]

    def _wrap_leaf(self, key, orig):
        return self._timed(key, lambda a, k: orig(*a, **k))

    def _wrap_span(self, key, orig):
        return self._timed(key, lambda a, k: self._span(key, orig, a, k))

    def _wrap_mul(self, key, orig):
        calls, busy = self.calls, self.busy
        tracer = self

        def __mul__(self_, other):
            t0 = perf()
            out = orig(self_, other)
            busy[key] += perf() - t0
            calls[key] += 1
            if out is not NotImplemented:
                tracer.terms_out += len(out.terms)
            return out

        return __mul__

    def _wrap_stabiliser(self, key, orig):
        points, reps = self.stab_points, self.stab_reps

        def call(a, k):
            rep, v = a[0], a[1]
            reps[id(rep)] = rep  # keeps id(rep) unique for the whole run
            points.add((id(rep), tuple(v)))
            return orig(*a, **k)

        return self._timed(key, call)

    def _wrap_matrix_at(self, key, orig):
        from semicov.poly import MultiPoly

        calls = self.calls

        def matrix_at(self_, v):
            calls[key] += 1
            if v and isinstance(v[0], MultiPoly):
                calls["matrix_at_symbolic"] += 1
            return orig(self_, v)

        return matrix_at

    def _wrap_resolve(self, key, orig):
        calls = self.calls

        def resolve_mode(*a, **k):
            out = orig(*a, **k)
            calls[key] += 1
            calls["resolved_" + out] += 1
            return out

        return resolve_mode

    def _wrap_construction(self, key, orig):
        from semicov.catalog import ExtraCheck

        def call(a, k):
            cons = self._span(key, orig, a, k)
            cons.extras = [ExtraCheck(e.name, self._wrap_extra(e)) for e in cons.extras]
            return cons

        return self._timed(key, call)

    def _wrap_extra(self, extra):
        name, fn = "extra." + extra.name, extra.run
        return lambda ctx: self._span(name, fn, (ctx,), {}, busy_key=name)

    def _wrap_target(self, key, orig):
        def call(a, k):
            target = a[0]
            group = "tables" if target.startswith("table") else target
            return self._span("run_target:" + target, orig, a, k, busy_key="run_target." + group)

        return self._timed(key, call)

    # -- results -----------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        calls = self.calls
        out = {}
        for name, unit, src in PER_LAYER:
            tag = src[0]
            if tag == "calls":
                val = calls.get(src[1], 0)
            elif tag == "busy":
                val = self.busy.get(src[1], 0.0)
            elif tag == "terms_out":
                val = self.terms_out
            elif tag == "distinct_ratio":
                n = calls.get("stabiliser", 0)
                val = len(self.stab_points) / n if n else 0.0
            else:
                val = {"traced": traced_wall, "untraced": untraced_wall,
                       "delta": traced_wall - untraced_wall}[src[1]]
            out[name] = {"value": val, "unit": unit}
        return out

    def write_spans(self, path) -> int:
        """One JSON object per span, with its self time; returns the count."""
        child = defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start_s": start - t0, "end_s": end - t0,
                    "self_s": (end - start) - child[sid],
                }) + "\n")
        return len(self.spans)
