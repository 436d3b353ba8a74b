"""The benchmark's workloads reproduce their frozen seed-0 reports byte for byte.

``bench/run.py`` compares every pass of a workload with
``bench/golden/<workload>/seed-<n>.json.gz``.  This test regenerates
``small-sweep`` (light entries and table rows, with negative controls),
``ex6.1-n4`` and ``wide-m2`` (ex6.3/iii at m=2, with sampled rows) at seed 0,
with the ``RunConfig`` that ``bench/worker.py`` builds, and compares the
bytes.  The golden files are only read.  ``suite`` at seed 0 is compared in
``test_acceptance_09``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from semicov.verify import RunConfig, default_targets, run_suite, to_json

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workloads():
    """``bench/workloads.py``, which imports nothing of semicov."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["small-sweep", "ex6.1-n4", "wide-m2"])
def test_workload_seed_0_matches_golden(name):
    bench = _workloads()
    wl = bench.WORKLOADS[name]
    targets = wl.entries or tuple(t for t in default_targets() if t not in wl.exclude)
    cfg = RunConfig(
        entries=targets if (wl.entries or wl.exclude) else (),
        overrides=wl.overrides,
        seed=0,
        negative_controls=wl.negative_controls,
        jobs=1,
    )
    want = bench.read_golden(name, 0)
    assert want is not None, name
    assert to_json(run_suite(cfg)).encode() == want
