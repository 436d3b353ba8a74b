"""Freeze the golden JSON report of each workload for each benchmark seed.

    python3 bench/make_golden.py                       # every workload, every seed
    python3 bench/make_golden.py --workload suite --seed 0 --seed 1

Reports are made without timings, exactly as ``run.py`` makes them, and are
stored gzip-compressed under ``bench/golden/<workload>/seed-<n>.json.gz``.
Re-freeze only for a change that alters report bytes on purpose, and say so
in CHANGES.md.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import ROOT, SEEDS, WORKLOADS, write_golden  # noqa: E402
from worker import import_semicov, run_pass, verdict_counts  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", action="append", type=int)
    args = ap.parse_args(argv)
    semicov = import_semicov()
    status = 0
    for name in args.workload or sorted(WORKLOADS):
        for seed in args.seed or SEEDS:
            report, entries, (t0, t1) = run_pass(semicov, WORKLOADS[name], seed)
            path = write_golden(name, seed, report)
            counts = verdict_counts(entries)
            if counts["fail"]:
                status = 1
            print("%s seed %d: %.1f s, %s -> %s" % (name, seed, t1 - t0, counts, path.relative_to(ROOT)),
                  flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
