"""Run every listed workload on ten seeds and summarise the spread.

    python3 bench/baseline.py --out bench/baseline/seed-commit.json
    python3 bench/baseline.py --workload small-sweep --seeds 5

For each workload and end-to-end metric it prints the median over the runs,
and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of that median, next to
the metric's bound from BENCHMARK.json. One traced run per workload is added.
Runs are sequential, one process at a time.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import git_commit, machine, spread  # noqa: E402
from workloads import ROOT, SEEDS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for m in SPEC["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        s = spread(vals)
        out[m["name"]] = dict(s, spread=(s["q3"] - s["q1"]) / s["median"],
                              bound=m["bound"], unit=m["unit"], values=vals)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", type=int, default=len(SEEDS))
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    record = {"commit": git_commit(), "machine": machine(), "seed_list": list(SEEDS),
              "run_seconds": SPEC["run_seconds"], "workloads": {}}
    ok = True
    for name in names:
        results = [bench(name, seed, 0) for seed in range(args.seeds)]
        summary = summarise(results)
        entry = {"seeds": list(range(args.seeds)), "summary": summary,
                 "correct": all(r["correct"] for r in results),
                 "attempted": [r["attempted"] for r in results]}
        traced = bench(name, 0, 1)
        entry["traced_seed0"] = traced
        entry["correct"] = entry["correct"] and traced["correct"]
        ok = ok and entry["correct"]
        record["workloads"][name] = entry
        print("%s: correct %s" % (name, entry["correct"]))
        for metric, s in summary.items():
            flag = "" if metric == "setup_s" or s["spread"] <= s["bound"] / 3 else "  <-- above bound/3"
            print("  %-15s median %12.4f %-5s spread %.4f (bound %.3f)%s"
                  % (metric, s["median"], s["unit"], s["spread"], s["bound"], flag), flush=True)
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
