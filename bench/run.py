"""semicov benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 bench/run.py --workload small-sweep --seed 0 --seconds 45 --trace 0

Each run starts fresh worker processes (``worker.py``): six that time the
set-up (import plus construction of every target) and one that runs the
workload in a closed loop, one ``run_suite`` pass after another on the run's
verifier seed, until ``--seconds`` have passed.  Timings are medians over the
passes, in seconds and in reference units (``refspeed.py``: the same time
at the speed the shared machine had at that moment); the bounded metrics
are the reference units.  Every report is compared byte for byte with its
golden copy under ``bench/golden``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give every metric with its quartiles and sample count, and
the machine, Python, commit and seed list.  The full record is written to
``bench/out/``.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from refspeed import REF_S  # noqa: E402
from workloads import BENCH_DIR, OUT_DIR, ROOT, SEEDS, WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170.0  # every run must end well inside 180 s
SETUPS = 6  # fresh set-up processes per run; setup_s is their median


def worker(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("bench: worker %s exited with %d" % (" ".join(args), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles, n=4) with the sample count."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def git_commit() -> str:
    # without this check, git would report a repository above the checkout
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def machine() -> dict:
    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "release": platform.release(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def per_target(passes: list[dict]) -> list[tuple]:
    """(name, median seconds, median ref, verdict) of each target, in pass order."""
    first = passes[0]["target_s"]
    for p in passes:
        assert [t[0] for t in p["target_s"]] == [t[0] for t in first], "passes differ"
    return [(name,
             statistics.median(p["target_s"][i][1] for p in passes),
             statistics.median(p["target_s"][i][2] for p in passes),
             verdict)
            for i, (name, _, _, verdict) in enumerate(first)]


def end_to_end(raw: dict, setups: list[dict]) -> tuple[dict, dict]:
    passes = raw["passes"]
    counts = passes[0]["verdicts"]  # every pass runs the same seed
    rows = sum(counts.values())
    targets = [t for t in per_target(passes) if t[3]]
    detail = {
        "pass_ref": spread([p["ref"] for p in passes]),
        "wall_s": spread([p["wall_s"] for p in passes]),
        "setup_s": spread([s["setup_s"] for s in setups]),
        "setup_ref_s": spread([s["setup_ref"] * REF_S for s in setups]),
        "verdict_ref": spread([t[2] for t in targets]),
        "verdict_s": spread([t[1] for t in targets]),
        "kernel_s": spread(raw["kernel_s"]),
        "rows": rows,
        "verdicts": counts,
        "attempted": rows * len(passes),
        "failed": sum(p["verdicts"]["fail"] for p in passes),
        "golden_mismatch": sum(1 for p in passes if p["golden"] != "match"),
        "reports": len(passes),
    }
    for key, column in (("verdict_ref", 2), ("verdict_s", 1)):
        q3 = detail[key]["q3"]
        detail[key]["beyond_p75"] = sum(1 for t in targets if t[column] > q3)
    detail["fail_share"] = detail["failed"] / detail["attempted"]
    detail["checks_per_s"] = rows / detail["wall_s"]["median"]
    metrics = {
        "pass_ref": (detail["pass_ref"]["median"], "ref"),
        "verdict_p50_ref": (detail["verdict_ref"]["median"], "ref"),
        "setup_s": (detail["setup_ref_s"]["median"], "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "exact_share": (counts["pass"] / (counts["pass"] + counts["sampled-pass"]), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def print_end_to_end(metrics: dict, detail: dict) -> None:
    def timing(name, d, unit, what):
        print("  %-15s %12.4f %-4s q1 %.4f  q3 %.4f  n=%d %s"
              % (name, d["median"], unit, d["q1"], d["q3"], d["n"], what))

    timing("pass_ref", detail["pass_ref"], "ref", "passes")
    timing("verdict_p50_ref", detail["verdict_ref"], "ref", "targets (median over the passes)")
    timing("setup_s", detail["setup_ref_s"], "s", "set-ups, at reference speed (ref x REF_S)")
    print("  %-15s %12.1f MB" % ("peak_rss_mb", metrics["peak_rss_mb"]["value"]))
    c = detail["verdicts"]
    print("  %-15s %12.4f      %d PASS, %d pass* per pass"
          % ("exact_share", metrics["exact_share"]["value"], c["pass"], c["sampled-pass"]))
    print(" printed only:")
    for unit, key in (("ref", "verdict_ref"), ("s", "verdict_s")):
        v = detail[key]
        print("  %-15s %12.4f %-4s %d of %d targets beyond p75"
              % ("verdict_p75_" + unit, v["q3"], unit, v["beyond_p75"], v["n"]))
    timing("wall_s", detail["wall_s"], "s", "passes, kernel runs left out")
    timing("verdict_p50_s", detail["verdict_s"], "s", "targets (median over the passes)")
    timing("setup_wall_s", detail["setup_s"], "s", "set-ups, kernel runs left out")
    print("  %-15s %12.2f 1/s  %d check rows per pass / median wall_s"
          % ("checks_per_s", detail["checks_per_s"], detail["rows"]))
    timing("kernel_s", detail["kernel_s"], "s", "reference kernel runs (1 ref each)")
    print("  %-15s %12.4f      %d fail of %d rows"
          % ("fail_share", detail["fail_share"], detail["failed"], detail["attempted"]))
    print("  %-15s %12d      of %d reports"
          % ("golden_mismatch", detail["golden_mismatch"], detail["reports"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "semicov" / "__init__.py").is_file():
        sys.stderr.write("bench: no semicov sources under %s/src\n" % ROOT)
        return 2

    started = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "seed_list": list(SEEDS),
        "commit": git_commit(),
        "machine": machine(),
    }
    if args.trace:
        raw = worker(["run", *common, "--seconds", str(args.seconds), "--trace", "1"],
                     RUN_LIMIT_S)
        metrics = raw["metrics"]
        correct = (raw["golden"] == "match" and raw["traced_identical"]
                   and not raw["missed_bindings"] and raw["verdicts"]["fail"] == 0)
        attempted = sum(raw["verdicts"].values())
        failed = raw["verdicts"]["fail"]
        print("traced %s, verifier seed %d, %d traced/untraced pairs: golden %s, "
              "traced reports identical: %s, missed bindings: %s, %d spans in %s"
              % (args.workload, raw["seed"], raw["pairs"], raw["golden"], raw["traced_identical"],
                 raw["missed_bindings"] or "none", raw["spans"], raw["spans_file"]))
        for name, m in metrics.items():
            print("  %-40s %16.6f %s" % (name, m["value"], m["unit"]))
    else:
        def left():
            return RUN_LIMIT_S - (time.monotonic() - started)

        def setup():
            return worker(["setup", "--workload", args.workload], left())

        # half the set-ups before the workload and half after, so that one
        # slow stretch of the machine does not decide the median
        setups = [setup() for _ in range(SETUPS // 2)]
        raw = worker(["run", *common, "--seconds", str(args.seconds), "--trace", "0"], left())
        setups += [setup() for _ in range(SETUPS - SETUPS // 2)]
        metrics, detail = end_to_end(raw, setups)
        correct = detail["golden_mismatch"] == 0 and detail["failed"] == 0
        attempted, failed = detail["attempted"], detail["failed"]
        record["detail"] = detail
        print("%s, verifier seed %d, %d passes, closed loop, jobs=1"
              % (args.workload, raw["seed"], len(raw["passes"])))
        print_end_to_end(metrics, detail)
    m = record["machine"]
    print("machine %s %s, Python %s, nproc %d; commit %s; seed list %s"
          % (m["system"], m["machine"], m["python"], m["nproc"], record["commit"], list(SEEDS)))
    record["raw"] = raw
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / ("result-%s-seed%d%s.json" % (args.workload, args.seed,
                                                  "-trace" if args.trace else ""))
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
