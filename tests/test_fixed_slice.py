"""The fixed-point slice certificate behind ``catalog.support.quotient_dim_estimate``.

The table rows' estimator reads ``lie.stabiliser_sample``, the one sampler
of a generic stabiliser, which the entries read too
(tests/test_entry_slice.py covers the entries).  With more than one sample
it computes the stabiliser t of the first point v1 only, and proves that no
other point ranks higher: G.S is dense for S = V^t
(``lie.fixed_slice_is_dense``), tested at v1 itself, which lies in S.  With
A = rho(t) stacked, the test is rank A M = rank A for the orbit map M at
v1: rank A exact, rank A M modulo a prime.  Covered here:

* on all 10 table-row modules, for seeds 0-29 at bounds 1, 3 and 10, the
  estimate equals that of the 20-rank estimator it replaced
  (``module_oracles.quotient_dim_estimate``), whether the certificate holds
  or the row falls back;
* on the 10 table modules and 13 entry configurations at seed 0, the
  certificate holds, and sympy over QQ confirms that the orbit map at v1
  and a basis of V^t span V (``module_oracles.fixed_slice_rank``);
* each broken premise makes the row fall back to the stabilisers of the
  remaining points of the same stream, t not recomputed, with the oracle's
  estimate: v1 forced to 0, the modular rank forced one short, and one
  sample;
* the work of a table row at seed 0: one ``rank_and_kernel`` (the orbit map
  at v1), one exact ``rank`` (of A), one ``product_rank_mod_p`` and one
  draw;
* the points after v1 are drawn only when read, on a table module and on
  ex6.1 at n=4.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import pytest

import module_oracles as oracle
import semicov.lie as lie
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
def work(record):
    """The counts, so far, of the estimator's exact ranks, kernels, modular
    ranks and draws."""
    calls = record("linalg.rank", "linalg.rank_and_kernel", "linalg.product_rank_mod_p",
                   "sampling.rand_vector")
    return lambda: dict(zip(("rank", "rank_and_kernel", "product_rank_mod_p", "draws"),
                            map(len, calls.values())))


def _since(work, before: dict) -> dict:
    return {key: n - before[key] for key, n in work().items()}


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


def test_a_zero_draw_falls_back_to_ranking_the_stream(modules, work):
    """v1 = 0 has t = g and S = V^g, which holds no dense orbit: density
    fails and the stabiliser of each of the other 19 points is computed,
    after the kernel of t and the exact rank of A."""
    for rep, row in zip(modules, MODULE_ROWS):
        ctx = ZeroDraw(labels=("quotient", rep.label))
        before = work()
        est = quotient_dim_estimate(rep, ctx)
        done = _since(work, before)
        assert done["rank_and_kernel"] == ctx.samples and done["rank"] == 1
        assert est == oracle.quotient_dim_estimate(rep, ctx), rep.label
        spec = row.module_spec
        assert est == rep.dim_v - rep.algebra.dim + spec.expected(dict(spec.default_params))["gs"]


def test_a_short_modular_rank_falls_back_to_ranking_the_stream(modules, work, monkeypatch):
    """A modular rank one below rank A, as a prime dividing the minors could
    give, is no proof: the sample is not proved, the stabilisers of the
    other 19 points are computed, and the estimate is the oracle's.  The
    row it feeds stays sampled, never an exact PASS."""
    inner = lie.product_rank_mod_p
    monkeypatch.setattr(lie, "product_rank_mod_p", lambda *args: inner(*args) - 1)
    ctx = CheckContext()
    for rep, row in zip(modules, MODULE_ROWS):
        before = work()
        assert not lie.stabiliser_sample(rep, ctx, "quotient", rep.label).proved, rep.label
        assert _since(work, before) == {
            "rank": 1, "rank_and_kernel": 1, "product_rank_mod_p": 1, "draws": 1}, rep.label
        est = quotient_dim_estimate(rep, ctx)
        assert _since(work, before)["rank_and_kernel"] == 1 + ctx.samples
        assert est == oracle.quotient_dim_estimate(rep, ctx), rep.label
        report = run_table_row(row.id, RunConfig())
        assert {c["verdict"] for c in report["checks"][1:]} == {"sampled-pass"}, row.id


def test_the_certificate_implies_density_over_qq(modules):
    """A True from ``fixed_slice_is_dense`` at seed 0 means g.v1 + V^t = V,
    which sympy confirms over QQ without ``semicov.linalg``: on the 10 table
    modules and on the 13 entry configurations of tests/test_entry_slice.py."""
    pytest.importorskip("sympy")
    from semicov.catalog import all_entries, build_construction, get_entry

    cases = [(rep, ("quotient", rep.label)) for rep in modules]
    configs = [(e.id, {}) for e in all_entries()] + [("ex6.1", {"n": 4}), ("ex6.3/iii", {"m": 2})]
    for entry_id, overrides in configs:
        entry = get_entry(entry_id)
        cases.append((build_construction(entry, entry.resolve(overrides)).module, ("gs", entry_id)))
    assert len(cases) == 23
    for rep, labels in cases:
        sample = lie.stabiliser_sample(rep, CheckContext(), *labels)
        orbit = [rep.act_basis(a, sample.v1) for a in range(rep.algebra.dim)]
        assert sample.proved and lie.fixed_slice_is_dense(rep, orbit, sample.t), labels
        assert oracle.fixed_slice_rank(rep, sample.v1) == rep.dim_v, labels


def test_one_sample_needs_no_certificate(modules, work):
    ctx = CheckContext(samples=1)
    want = [oracle.quotient_dim_estimate(rep, ctx) for rep in modules]
    before = work()
    assert [quotient_dim_estimate(rep, ctx) for rep in modules] == want
    assert _since(work, before) == {"rank": 0, "rank_and_kernel": 10, "product_rank_mod_p": 0, "draws": 10}


def test_table_row_work_count_at_seed_0(modules, work):
    """At the default knobs the certificate holds on every module row at v1,
    so no point after v1 is ranked."""
    for row in MODULE_ROWS:
        before = work()
        report = run_table_row(row.id, RunConfig())
        assert all(c["verdict"] != "fail" for c in report["checks"]), row.id
        assert _since(work, before) == {
            "rank": 1, "rank_and_kernel": 1, "product_rank_mod_p": 1, "draws": 1}, row.id


def test_points_after_v1_are_drawn_when_read(modules, work):
    """The sampler draws v1 alone; the other 19 points of the stream are
    drawn when ``points`` is first read, once, and with v1 they are the
    stream's first 20 draws."""
    from semicov.catalog import build_construction, get_entry

    entry = get_entry("ex6.1")
    ex61 = build_construction(entry, entry.resolve({"n": 4})).module
    ctx = CheckContext()
    for rep, labels in ((modules[0], ("quotient", modules[0].label)), (ex61, ("gs", "ex6.1"))):
        before = work()
        sample = lie.stabiliser_sample(rep, ctx, *labels)
        assert sample.proved and _since(work, before)["draws"] == 1, labels
        draw = ctx.draw(rep.dim_v, *labels)
        stream = [draw() for _ in range(ctx.samples)]
        before = work()
        assert sample.points == stream and _since(work, before)["draws"] == ctx.samples - 1, labels
        assert sample.points is sample.points and _since(work, before)["draws"] == ctx.samples - 1
