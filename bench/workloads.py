"""Workload definitions shared by the orchestrator, the worker and the golden tool.

This module does not import ``semicov``: the orchestrator (``run.py``) only
needs the names, and each workload runs in a fresh worker process that does
the import itself.
"""
from __future__ import annotations

import gzip
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIR = BENCH_DIR / "golden"
OUT_DIR = BENCH_DIR / "out"

# Verifier seeds with a frozen golden report for every workload.  Every pass
# of a run started with --seed n uses the verifier seed SEEDS[n % len(SEEDS)].
SEEDS = tuple(range(10))


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
@dataclass(frozen=True)
class Workload:
    name: str
    entries: tuple[str, ...] = ()  # () = every default target
    exclude: tuple[str, ...] = ()  # dropped from the default targets
    overrides: tuple[tuple[str, int], ...] = ()
    negative_controls: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("suite"),
        Workload(
            "small-sweep",
            exclude=("ex6.1", "ex5.1"),
            negative_controls=True,
        ),
        Workload(
            "ex6.1-n4",
            entries=("ex6.1",),
            overrides=(("n", 4),),
        ),
        Workload(
            "wide-m2",
            entries=("ex6.3/iii",),
            overrides=(("m", 2),),
        ),
    )
}


def verifier_seed(seed: int) -> int:
    """The verifier seed of every pass of a run started with --seed seed."""
    return SEEDS[seed % len(SEEDS)]


def golden_path(workload: str, seed: int) -> Path:
    return GOLDEN_DIR / workload / ("seed-%d.json.gz" % seed)


def read_golden(workload: str, seed: int) -> bytes | None:
    path = golden_path(workload, seed)
    if not path.is_file():
        return None
    return gzip.decompress(path.read_bytes())


def write_golden(workload: str, seed: int, report: bytes) -> Path:
    path = golden_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the compressed bytes reproducible
    path.write_bytes(gzip.compress(report, compresslevel=9, mtime=0))
    return path
