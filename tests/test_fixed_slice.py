"""The fixed-point slice certificate behind ``catalog.support.quotient_dim_estimate``.

The table rows' estimator reads ``lie.stabiliser_sample``, the one sampler
of a generic stabiliser, which the entries read too
(tests/test_entry_slice.py covers the entries).  With more than one sample
it computes the stabiliser t of the first point v1 only, and proves that no
other point ranks higher: G.S is dense for S = V^t
(``lie.fixed_slice_is_dense``).  Covered here:

* on all 10 table-row modules, for seeds 0-29 at bounds 1, 3 and 10, the
  estimate equals that of the 20-rank estimator it replaced
  (``module_oracles.quotient_dim_estimate``), whether the certificate holds
  or the row falls back;
* each broken premise makes the row fall back to the stabilisers of the
  remaining points of the same stream, t not recomputed, with the oracle's
  estimate: slice coefficients forced to 0, v1 forced to 0, and one sample;
* the work of a table row at seed 0: no ``rank``, two ``rank_and_kernel``
  (orbit map at v1, then V^t), one ``rank_mod_p`` and two draws;
* the points after v1 are drawn only when read, on a table module and on
  ex6.1 at n=4.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import pytest

import module_oracles as oracle
import semicov.catalog.support as support
import semicov.lie as lie
import semicov.poly as poly
from semicov.catalog import all_rows, quotient_dim_estimate
from semicov.poly import CheckContext
from semicov.verify import RunConfig, run_table_row

MODULE_ROWS = [row for row in all_rows() if row.module_spec is not None]


@pytest.fixture(scope="module")
def modules():
    reps = [row.module_spec.build(dict(row.module_spec.default_params)) for row in MODULE_ROWS]
    assert len(reps) == 10
    return reps


@pytest.fixture
def work(monkeypatch):
    """Counts of the estimator's ranks, kernels, modular ranks and draws."""
    counts = dict.fromkeys(("rank", "rank_and_kernel", "rank_mod_p", "draws"), 0)

    def counting(key, inner):
        def wrapper(*args):
            counts[key] += 1
            return inner(*args)
        return wrapper

    for key, module in (("rank", support), ("rank_and_kernel", lie), ("rank_mod_p", lie)):
        monkeypatch.setattr(module, key, counting(key, getattr(module, key)))
    monkeypatch.setattr(poly, "rand_vector", counting("draws", poly.rand_vector))
    return counts


@dataclass(frozen=True)
class ZeroDraw(CheckContext):
    """A context whose stream ``labels`` gives 0 at its first draw; the
    other draws of that stream, and every other stream, are unchanged."""

    labels: tuple = ()

    def draw(self, n: int, *labels):
        inner = super().draw(n, *labels)
        if labels != self.labels:
            return inner
        calls = itertools.count()

        def draw():
            v = inner()
            return [0] * n if next(calls) == 0 else v

        return draw


@pytest.mark.parametrize("bound", [1, 3, 10])
def test_estimate_matches_the_twenty_rank_oracle(modules, bound):
    for seed in range(30):
        ctx = CheckContext(seed=seed, bound=bound)
        for rep in modules:
            assert quotient_dim_estimate(rep, ctx) == oracle.quotient_dim_estimate(rep, ctx), (
                rep.label, seed)


@pytest.mark.parametrize("stream", ["slice", "v1"])
def test_a_zero_draw_falls_back_to_ranking_the_stream(modules, work, stream):
    """s = 0 spans only S, and v1 = 0 has t = g and S = V^g, which holds no
    dense orbit: density fails and the stabilisers of the other 19 points
    are computed, after the kernels of t and V^t."""
    for rep, row in zip(modules, MODULE_ROWS):
        labels = ("quotient", rep.label) + (("slice",) if stream == "slice" else ())
        ctx = ZeroDraw(labels=labels)
        before = dict(work)
        est = quotient_dim_estimate(rep, ctx)
        assert work["rank_and_kernel"] - before["rank_and_kernel"] == 2 + ctx.samples - 1
        assert work["rank"] == before["rank"]
        assert est == oracle.quotient_dim_estimate(rep, ctx), rep.label
        spec = row.module_spec
        assert est == rep.dim_v - rep.algebra.dim + spec.expected(dict(spec.default_params))["gs"]


def test_one_sample_needs_no_certificate(modules, work):
    ctx = CheckContext(samples=1)
    want = [oracle.quotient_dim_estimate(rep, ctx) for rep in modules]
    work.update(dict.fromkeys(work, 0))
    assert [quotient_dim_estimate(rep, ctx) for rep in modules] == want
    assert work == {"rank": 0, "rank_and_kernel": 10, "rank_mod_p": 0, "draws": 10}


def test_table_row_work_count_at_seed_0(modules, work):
    """At the default knobs the certificate holds on every module row at its
    first draw, so no point after v1 is ranked.  (``modules`` builds the
    classical algebras, whose bases are kernels, before anything is counted.)"""
    for row in MODULE_ROWS:
        counts = dict(work)
        report = run_table_row(row.id, RunConfig())
        assert all(c["verdict"] != "fail" for c in report["checks"]), row.id
        assert {k: work[k] - counts[k] for k in work} == {
            "rank": 0, "rank_and_kernel": 2, "rank_mod_p": 1, "draws": 2}, row.id


def test_points_after_v1_are_drawn_when_read(modules, work):
    """The sampler draws v1 and the slice point; the other 19 points of the
    stream are drawn when ``points`` is first read, once, and with v1 they
    are the stream's first 20 draws."""
    from semicov.catalog import build_construction, get_entry

    entry = get_entry("ex6.1")
    ex61 = build_construction(entry, entry.resolve({"n": 4})).module
    ctx = CheckContext()
    for rep, labels in ((modules[0], ("quotient", modules[0].label)), (ex61, ("gs", "ex6.1"))):
        work.update(dict.fromkeys(work, 0))
        sample = lie.stabiliser_sample(rep, ctx, *labels)
        assert sample.proved and work["draws"] == 2, labels
        draw = ctx.draw(rep.dim_v, *labels)
        stream = [draw() for _ in range(ctx.samples)]
        work["draws"] = 0
        assert sample.points == stream and work["draws"] == ctx.samples - 1, labels
        assert sample.points is sample.points and work["draws"] == ctx.samples - 1
