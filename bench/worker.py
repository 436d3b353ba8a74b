"""One workload in one fresh process; started by ``run.py``, never by hand.

    python3 bench/worker.py setup --workload NAME
    python3 bench/worker.py run --workload NAME --seed N --seconds S --trace 0|1

``setup`` times the import of ``semicov`` plus the construction set-up of
every target of the workload, in seconds and in reference units.  ``run``
drives ``semicov.verify.run_suite`` (jobs=1, closed loop: one pass after
another, all on the run's verifier seed) while one more pass of average
length still ends within ``--seconds``.  It samples the machine's speed throughout
(``refspeed.SpeedSampler``), times every pass and every ``run_target`` call
in seconds and in reference units, compares every report with its golden
copy and prints one JSON line with the raw measurements.  With ``--trace 1``
it instead runs traced and untraced passes in turn, traced first, on the
same closed-loop rule.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from refspeed import REF_S, SpeedSampler  # noqa: E402
from workloads import OUT_DIR, ROOT, WORKLOADS, read_golden, verifier_seed  # noqa: E402

SRC = ROOT / "src"
perf = time.perf_counter


def import_semicov():
    if not (SRC / "semicov" / "__init__.py").is_file():
        sys.exit("bench: no semicov sources at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import semicov
    import semicov.verify  # noqa: F401

    return semicov


def targets(semicov, wl) -> list[str]:
    if wl.entries:
        return list(wl.entries)
    return [t for t in semicov.verify.default_targets() if t not in wl.exclude]


def config(semicov, wl, seed: int):
    return semicov.verify.RunConfig(
        entries=tuple(targets(semicov, wl)) if (wl.entries or wl.exclude) else (),
        overrides=wl.overrides,
        seed=seed,
        negative_controls=wl.negative_controls,
        jobs=1,
    )


def run_pass(semicov, wl, seed: int, targets: list | None = None):
    """One workload pass (run_suite plus to_json): (report bytes, entries,
    (start, end)) on the ``perf_counter`` clock.

    With ``targets`` each ``run_target`` call appends ``[name, start, end,
    verdict]``; ``verdict`` is false for a table row whose only row is a
    skipped metadata line."""
    verify = semicov.verify
    cfg = config(semicov, wl, seed)
    inner = verify.run_target
    if targets is not None:

        def timed_target(name, c):
            t0 = perf()
            out = inner(name, c)
            t1 = perf()
            verdict = any(check["verdict"] != "skipped" for check in out["checks"])
            targets.append([name, t0, t1, verdict])
            return out

        verify.run_target = timed_target
    try:
        t0 = perf()
        report = verify.run_suite(cfg)
        text = verify.to_json(report)
        t1 = perf()
    finally:
        verify.run_target = inner
    return text.encode(), report.entries, (t0, t1)


def verdict_counts(entries) -> dict:
    counts = {"pass": 0, "sampled-pass": 0, "fail": 0, "skipped": 0}
    for entry in entries:
        for check in entry["checks"]:
            counts[check["verdict"]] = counts.get(check["verdict"], 0) + 1
    return counts


def golden_status(wl, seed: int, report: bytes) -> str:
    want = read_golden(wl.name, seed)
    if want is None:
        return "missing"
    return "match" if want == report else "mismatch"


def cmd_setup(wl) -> dict:
    """Set-up seconds, and ref from speed samples taken during the set-up and
    just before and after it."""
    with SpeedSampler() as sampler:
        for _ in range(5):
            sampler.sample()
        t0 = perf()
        semicov = import_semicov()
        from semicov.catalog import build_construction, get_entry, get_row
        from semicov.semidirect import SemidirectProduct

        overrides = dict(wl.overrides)
        for name in targets(semicov, wl):
            if name.startswith("table"):
                spec = get_row(name).module_spec
                if spec is not None:
                    spec.build(dict(spec.default_params))
                continue
            entry = get_entry(name)
            known = {p.name for p in entry.params}
            cons = build_construction(entry, {k: v for k, v in overrides.items() if k in known})
            SemidirectProduct(cons.module, name=entry.id)
        t1 = perf()
        for _ in range(5):
            sampler.sample()
    seconds, ref = sampler.cost(t0, t1)
    return {"setup_s": seconds, "setup_ref": ref}


def cmd_run(wl, seed: int, seconds: float) -> dict:
    """Each pass and each target gets ``seconds`` and ``ref`` from
    ``SpeedSampler.cost``."""
    semicov = import_semicov()
    s = verifier_seed(seed)
    passes = []
    started = perf()
    with SpeedSampler() as sampler:
        while True:
            targets = []
            report, entries, span = run_pass(semicov, wl, s, targets)
            passes.append({
                "span": span,
                "target_s": targets,
                "verdicts": verdict_counts(entries),
                "golden": golden_status(wl, s, report),
            })
            elapsed = perf() - started
            if elapsed + elapsed / len(passes) > seconds:  # the next pass would overrun
                break
    for p in passes:
        p["wall_s"], p["ref"] = sampler.cost(*p.pop("span"))
        p["target_s"] = [[name, *sampler.cost(t0, t1), verdict]
                         for name, t0, t1, verdict in p["target_s"]]
    return {"seed": s, "passes": passes, "peak_rss_mb": peak_rss_mb(),
            "kernel_s": sampler.durations}


def cmd_trace(wl, seed: int, seconds: float) -> dict:
    """Counts, busy times and spans come from the first traced pass.  Each
    untraced pass follows a traced one, so it never pays the first-pass
    costs.  The speed sampler runs throughout, so the overhead is measured
    in reference units and given in seconds at reference speed."""
    from tracer import Tracer

    semicov = import_semicov()
    s = verifier_seed(seed)
    first, missed, reports = None, set(), set()
    traced_spans, untraced_spans = [], []
    started = perf()
    with SpeedSampler() as sampler:
        while True:
            tracer = Tracer()
            tracer.install()
            try:
                missed.update(tracer.missed())
                traced, entries, span = run_pass(semicov, wl, s)
            finally:
                tracer.uninstall()
            traced_spans.append(span)
            if first is None:
                first, first_entries = tracer, entries
            plain, _, span = run_pass(semicov, wl, s)
            untraced_spans.append(span)
            reports.update((traced, plain))
            elapsed = perf() - started
            if elapsed + elapsed / len(untraced_spans) > seconds:  # the next pair would overrun
                break
    traced_s, untraced_s = ([sampler.cost(*span)[1] * REF_S for span in spans]
                            for spans in (traced_spans, untraced_spans))
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / ("spans-%s-seed%d.jsonl" % (wl.name, seed))
    n_spans = first.write_spans(spans_file)
    return {
        "seed": s,
        "pairs": len(untraced_s),
        "traced_ref_s": traced_s,
        "untraced_ref_s": untraced_s,
        "golden": golden_status(wl, s, plain),
        "traced_identical": len(reports) == 1,
        "missed_bindings": sorted(missed),
        "verdicts": verdict_counts(first_entries),
        "metrics": first.metrics(statistics.median(traced_s), statistics.median(untraced_s)),
        "spans": n_spans,
        "spans_file": str(spans_file.relative_to(ROOT)),
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.mode == "setup":
        out = cmd_setup(wl)
    elif args.trace:
        out = cmd_trace(wl, args.seed, args.seconds)
    else:
        out = cmd_run(wl, args.seed, args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
