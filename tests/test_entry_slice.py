"""The entries' generic stabiliser, proved on its fixed-point slice.

``lie.stabiliser_sample`` computes t = g_v1 at the first point of an
entry's ``("gs", entry_id)`` stream and proves it generic with
``lie.fixed_slice_is_dense`` at v1 itself, the certificate of the table
rows.  The gs, quotient and rais rows then read t alone, independence and
ex-adjoint's kernel_span read the drawn points, and no other stabiliser is
computed: kernel_span's values, of rank dim t at every point, span every
stabiliser of the generic dimension.
An abelian t gives the largest Kirillov rank by Rais' formula,
2(dim g - dim t), and each index batch stops at its first point of that
rank.  Covered here:

* for the 11 entries at their defaults, ex6.1 at n=4 and ex6.3/iii at m=2,
  seeds 0-2: the certificate holds, and the report equals that of a run
  with the certificate forced false, which computes every stabiliser and
  ranks every Kirillov form as before; 2(dim g - dim t) equals the largest
  rank of that run's unbounded estimate.  The identity rows (kernel_phi, equivariance, the extras, the
  lift and Poisson rows) read no stabiliser, so both runs stub them, which
  keeps this test fast;
* the work of the gs and index rows of ex6.1 at n=4, seed 0: one exact
  kernel (t), one exact rank (of rho(t)), one modular rank and two
  Kirillov ranks;
* the entry draws whose slice point once fell on a degenerate sub-slice
  are proved at v1;
* each broken premise: a non-abelian t, even one marked proved, gets no
  Rais bound and its gs row stays FAIL; a bound above every rank leaves
  ``index_estimate`` as it is unbounded.
"""

from __future__ import annotations

import pytest

import semicov.lie as lie
import semicov.verify as verify
from semicov.catalog import all_entries, build_construction, get_entry
from semicov.lie import StabiliserSample, stabiliser
from semicov.poly import CheckContext
from semicov.semidirect import SemidirectProduct, index_estimate
from semicov.verify import RunConfig, run_entry

CONFIGS = [(e.id, ()) for e in all_entries()] + [("ex6.1", (("n", 4),)), ("ex6.3/iii", (("m", 2),))]
IDS = [entry_id + "".join("-%s%d" % kv for kv in overrides) for entry_id, overrides in CONFIGS]


@pytest.fixture
def work(record):
    """Every call of the functions below."""
    return record("lie.stabiliser", "linalg.rank_and_kernel", "linalg.rank", "linalg.product_rank_mod_p",
                  "linalg.skew_rank", "semidirect.index_estimate")


def _run(entry_id, overrides, seed, work):
    """The report, each count but index_estimate's, and each (dim, bound, estimate) of an index."""
    for calls in work.values():
        calls.clear()
    report = run_entry(entry_id, RunConfig(overrides=overrides, seed=seed))
    *counted, estimates = work.values()
    counts = {path.split(".")[-1]: len(calls) for path, calls in zip(work, counted)}
    return report, counts, [(c.args[0].dim, c.args[2] if len(c.args) > 2 else None, c.result)
                            for c in estimates]


@pytest.mark.parametrize("entry_id, overrides", CONFIGS, ids=IDS)
def test_certified_report_equals_the_fallback_report(monkeypatch, work, entry_id, overrides):
    monkeypatch.setattr(verify, "_identity_row", lambda name, build, *args: {"name": name})
    cons = build_construction(get_entry(entry_id), get_entry(entry_id).resolve(dict(overrides)))
    dim_g = cons.algebra.dim
    for seed in range(3):
        report, certified, [(_, bound, est)] = _run(entry_id, overrides, seed, work)
        sample = lie.stabiliser_sample(cons.module, CheckContext(seed=seed), "gs", entry_id)
        t = sample.t
        assert sample.proved, (entry_id, seed)
        assert sample.abelian and bound == 2 * (dim_g - t.dim)
        assert certified["stabiliser"] == 1
        assert 2 <= certified["skew_rank"] == len(est.ranks) <= est.drawn == 20
        with monkeypatch.context() as m:
            m.setattr(lie, "fixed_slice_is_dense", lambda *args: False)
            fallback, counts, [(_, bound, est)] = _run(entry_id, overrides, seed, work)
        assert fallback == report, (entry_id, seed)
        # every stabiliser and every Kirillov form, each once, as before, and
        # neither rank of the certificate (the other rows' ranks stay)
        assert counts["stabiliser"] == 20 and counts["product_rank_mod_p"] == 0
        assert certified["product_rank_mod_p"] == 1 and counts["rank"] == certified["rank"] - 1
        assert bound is None and counts["skew_rank"] == len(est.ranks) == 20
        # Rais: the largest rank of the unbounded estimate is 2(dim g - dim t)
        assert est.max_rank == 2 * (dim_g - t.dim)


def test_gs_and_index_work_of_ex61_n4_at_seed_0(work):
    report, counts, [(_, bound, est)] = _run("ex6.1", (("n", 4),), 0, work)
    assert all(c["verdict"] != "fail" for c in report["checks"])
    # t; rank A and the density rank mod p; one Kirillov form a batch; and
    # the independence and witness rows' ranks of the 15 x 2 family values
    assert counts == {"stabiliser": 1, "rank_and_kernel": 1, "rank": 3, "product_rank_mod_p": 1,
                      "skew_rank": 2}
    assert bound == est.max_rank == 2 * (15 - 2) and len(est.ranks) == 2  # sl4, t of dim 2


@pytest.mark.parametrize("entry_id, seed", [
    ("ex5.2", 2), ("ex5.3", 11), ("ex5.3/gl", 10), ("ex6.2", 1), ("ex6.2", 3), ("ex6.2", 21),
    ("ex6.2", 25), ("ex6.4", 1),
])
def test_draws_once_on_a_degenerate_sub_slice_are_proved(entry_id, seed):
    """The slice point, once drawn from the stream of ("gs", entry_id) on
    the kernel basis of V^t, had a zero coefficient at these seeds, and
    density failed though t was generic.  Tested at v1, each is proved, and
    t has the entry's generic dimension l."""
    entry = get_entry(entry_id)
    cons = build_construction(entry, entry.resolve({}))
    sample = lie.stabiliser_sample(cons.module, CheckContext(seed=seed), "gs", entry_id)
    assert sample.proved and sample.t.dim == cons.expected.rank


def test_a_non_abelian_stabiliser_gets_no_rais_bound(monkeypatch, work):
    """The zero point of the adjoint sl2 module has g_x = sl2.  Marked
    proved, it still gives no bound, and the rows it reads stay FAIL."""

    def zero_point(rep, ctx, *labels):
        zero = [0] * rep.dim_v
        return StabiliserSample(rep, zero, stabiliser(rep, zero), proved=True)

    monkeypatch.setattr(verify, "stabiliser_sample", zero_point)
    report, _, estimates = _run("ex-adjoint", (("n", 2),), 0, work)
    # ind q with no bound, then ind g_x inside sl2
    assert [(dim, bound) for dim, bound, _ in estimates] == [(6, None), (3, None)]
    rows = {c["name"]: c for c in report["checks"]}
    assert rows["gs_dimension_toral"]["verdict"] == "fail"
    assert rows["gs_dimension_toral"]["witness"] == [0, 0, 0]
    # ind g_x sampled inside sl2, not taken as dim g_x
    assert rows["rais_consistency"]["verdict"] == "fail"
    assert rows["rais_consistency"]["witness"]["stab_dim"] == 3
    assert rows["rais_consistency"]["witness"]["stab_index"] == 1


@pytest.mark.parametrize("samples", [1, 7, 20])
def test_a_bound_above_every_rank_ranks_every_point(samples):
    q = SemidirectProduct(build_construction(get_entry("ex5.2"), {}).module)
    ctx = CheckContext(seed=4, samples=samples)
    want = index_estimate(q.lie, ctx)
    got = index_estimate(q.lie, ctx, q.dim + 1)
    assert got == want and len(got.ranks) == got.drawn == 2 * max(1, samples // 2)


def test_a_rank_shortfall_in_kernel_span_falls_back_to_every_stabiliser(monkeypatch, work):
    """ex-adjoint's kernel_span reads the proof only when the values have
    rank dim t at every point.  A shortfall, faked at one later point, sends
    it back to the exact stabilisers of every point, and its row prints the
    bytes of a run whose certificate is refused."""
    import semicov.covariants as covariants

    cons = build_construction(get_entry("ex-adjoint"), {})
    sample = lie.stabiliser_sample(cons.module, CheckContext(), "gs", "ex-adjoint")
    short = covariants.values_matrix_at(cons.family, sample.points[7])
    rank = covariants.rank
    monkeypatch.setattr(covariants, "rank", lambda m: rank(m) - (m == short))
    report, counts, _ = _run("ex-adjoint", (), 0, work)
    assert counts["stabiliser"] == 20 and counts["product_rank_mod_p"] == 1
    row = next(c for c in report["checks"] if c["name"] == "kernel_span")
    assert row["verdict"] == "fail" and row["witness"][7][1] == sample.t.dim - 1
    monkeypatch.setattr(lie, "fixed_slice_is_dense", lambda *args: False)
    fallback, counts, _ = _run("ex-adjoint", (), 0, work)
    assert counts["product_rank_mod_p"] == 0
    assert next(c for c in fallback["checks"] if c["name"] == "kernel_span") == row
