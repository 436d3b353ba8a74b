"""Checks of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from refspeed import SpeedSampler  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import ROOT, SEEDS, WORKLOADS, golden_path  # noqa: E402
from worker import import_semicov  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced_worker(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "run", "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_match_the_code():
    assert [m["name"] for m in SPEC["per_layer"]] == [name for name, _, _ in PER_LAYER]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {n: u for n, u, _ in PER_LAYER}
    verdicts = {"pass": 3, "sampled-pass": 1, "fail": 0, "skipped": 0}
    raw = {
        "passes": [
            {"wall_s": 2.5, "ref": 1000.0, "golden": "match", "verdicts": verdicts,
             "target_s": [["a", 1.0, 400.0, True], ["b", 0.5, 200.0, False],
                          ["c", 0.8, 320.0, True]]},
            {"wall_s": 2.2, "ref": 1200.0, "golden": "match", "verdicts": verdicts,
             "target_s": [["a", 0.9, 500.0, True], ["b", 0.6, 240.0, False],
                          ["c", 0.6, 300.0, True]]},
        ],
        "peak_rss_mb": 20.0,
        "kernel_s": [0.002, 0.003],
    }
    setups = [{"setup_s": 1.0, "setup_ref": 400.0}, {"setup_s": 1.1, "setup_ref": 500.0},
              {"setup_s": 1.2, "setup_ref": 600.0}]
    metrics, detail = run.end_to_end(raw, setups)
    assert metrics["setup_s"]["value"] == pytest.approx(500.0 * run.REF_S)
    assert detail["setup_s"]["median"] == pytest.approx(1.1)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: v["unit"] for k, v in metrics.items()
    }
    assert metrics["exact_share"]["value"] == 0.75
    assert metrics["pass_ref"]["value"] == pytest.approx(1100.0)
    # per-target medians over the passes: a 450, c 310; b makes no verdict
    assert metrics["verdict_p50_ref"]["value"] == pytest.approx(380.0)
    assert detail["checks_per_s"] == pytest.approx(4 / 2.35)
    assert (detail["attempted"], detail["failed"]) == (8, 0)
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_speed_sampler_converts_seconds_to_ref():
    sampler = SpeedSampler()
    sampler.starts = [0.0, 0.05, 0.10, 0.15]
    sampler.durations = [0.002, 0.002, 0.004, 0.004]
    # two kernel runs lie inside the interval; all four are within one
    # sampling interval of it: mean speed (500 + 500 + 250 + 250) / 4 runs/s
    seconds, ref = sampler.cost(0.04, 0.12)
    assert seconds == pytest.approx(0.074)
    assert ref == pytest.approx(0.074 * 375)
    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as live:
        end = run.time.monotonic() + 0.3
        while run.time.monotonic() < end:
            pass
    assert len(live.durations) >= 3
    assert signal.getsignal(signal.SIGALRM) is before


def test_every_golden_is_frozen():
    for name in WORKLOADS:
        for seed in SEEDS:
            assert golden_path(name, seed).is_file(), (name, seed)


def test_tracer_patches_every_binding():
    semicov = import_semicov()
    from semicov.poly import MultiPoly

    originals = {
        "rank": semicov.linalg.rank,
        "mul": MultiPoly.__dict__["__mul__"],
    }
    holders = [semicov.linalg, semicov.verify, semicov.semidirect, semicov.covariants,
               semicov.catalog.support]
    assert all(getattr(m, "rank") is originals["rank"] for m in holders)
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missed() == []
        wrapped = {getattr(m, "rank") for m in holders}
        assert len(wrapped) == 1 and originals["rank"] not in wrapped
        assert MultiPoly.__dict__["__rmul__"] is MultiPoly.__dict__["__mul__"]
        assert MultiPoly.__dict__["__mul__"] is not originals["mul"]
        x = MultiPoly.variable(2, 0)
        (x * x) * 3
        2 * x
        assert tracer.calls["mul"] == 3
    finally:
        tracer.uninstall()
    assert all(getattr(m, "rank") is originals["rank"] for m in holders)
    assert MultiPoly.__dict__["__mul__"] is originals["mul"]


def test_traced_runs_are_identical_and_repeat_exactly():
    first = traced_worker("small-sweep", 0)
    second = traced_worker("small-sweep", 0)
    for out in (first, second):
        assert out["traced_identical"], "traced report differs from the untraced one"
        assert out["golden"] == "match"
        assert out["missed_bindings"] == []
    counts = [name for name, unit, _ in PER_LAYER if unit == "count"]
    assert "mul_terms_out" in counts and "mul_calls" in counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("trace", ["0", "1"])
def test_refuses_without_sources(tmp_path, trace):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite", "--seed", "0",
         "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
