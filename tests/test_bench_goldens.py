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

import pytest

from semicov.verify import RunConfig, default_targets, run_suite, to_json


@pytest.mark.parametrize("name", ["small-sweep", "ex6.1-n4", "wide-m2"])
def test_workload_seed_0_matches_golden(bench_workloads, name):
    wl = bench_workloads.WORKLOADS[name]
    targets = wl.entries or tuple(t for t in default_targets() if t not in wl.exclude)
    cfg = RunConfig(
        entries=targets if (wl.entries or wl.exclude) else (),
        overrides=wl.overrides,
        seed=0,
        negative_controls=wl.negative_controls,
        jobs=1,
    )
    want = bench_workloads.read_golden(name, 0)
    assert want is not None, name
    assert to_json(run_suite(cfg)).encode() == want
