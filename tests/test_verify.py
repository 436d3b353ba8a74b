"""Verifier plumbing: determinism, verdict mapping, and the CLI contract.

Covered here:

* two runs with one seed serialise to byte-identical JSON, and the timing
  field stays out of the payload unless explicitly requested; with
  --timings every row carries it, table rows and negative controls too;
* a run on two worker processes (--jobs 2) gives the bytes of a serial run;
* Report.failed flags a run exactly when some check row says "fail";
* negative controls are reported as passes (the expected failure happened)
  and carry the reason in the detail column;
* below-minimum parameter overrides degrade to a single skipped audit row
  instead of raising;
* table rows: metadata-only rows report one skipped row, bare-module rows
  get their dimension/stabiliser checks;
* a family row whose covariants resolve partly exact and partly sampled
  names the covariants of each group (stub checks); unmixed rows keep their
  wording;
* an entry draws one sample of V, in the gs row, and computes each sampled
  stabiliser at most once for all five rows that read it: only the first
  once it is proved generic, unless kernel_span reads them all; a table row
  ranks each sampled point at most once (tests/test_fixed_slice.py and
  tests/test_entry_slice.py count the rest of the work); the rais row
  reuses the index_stabilized estimate, takes ind g_x = dim g_x for an
  abelian g_x and passes --bound to the estimate of a non-abelian one;
  every index estimate ranks its Kirillov forms through
  semidirect.kirillov_rank;
* RunConfig settles the targets once (canonical ids, each once, the
  default suite when none is named) and rejects an override no entry
  target takes, table rows keeping their pinned parameters; run_suite
  resolves nothing again;
* --samples and --bound reach every sampled row of an entry, family rows,
  extras and the stabiliser and index rows alike (witness_plane keeps its
  fixed 10 points); every identity extra follows --mode sampled;
* --mode exact past the cutoffs reports a skipped row carrying the
  refusal, and the run goes on (the README's own exact-mode example);
* the command line resolves aliases, prints one line per catalog entry or
  table row, emits parseable JSON (text is the default), and uses exit
  codes 0 (green), 1 (some check failed) and 2 (usage errors: unknown
  identifier, --samples, --bound or --jobs below 1, an override no target
  takes, an --out that cannot be written, nothing verified); every usage
  error but the last comes before --out is opened, so it neither creates
  nor changes the file; --out to os.devnull or a FIFO writes the report
  without truncating and exits 0.
"""

from __future__ import annotations

import json
import os
import re
import threading

import pytest

from semicov import cli
from semicov.poly import ZeroCheck
from semicov.verify import (
    Report,
    RunConfig,
    _aggregate,
    jsonable,
    run_entry,
    run_suite,
    run_table_row,
    to_json,
    to_text,
)
from fractions import Fraction


def _checks_by_name(report_dict):
    return {c["name"]: c for c in report_dict["checks"]}


def test_mixed_family_row_names_each_mode():
    class Stub:
        def __init__(self, name):
            self.name = name

    exact, sampled = ZeroCheck("proved_zero", "exact"), ZeroCheck("sampled_zero", "sampled", 20)
    family = [Stub("F1"), Stub("F2"), Stub("F3")]

    def row(modes, extra=""):
        return _aggregate("kernel_phi", family, lambda F: modes[F.name], extra)

    mixed = row({"F1": exact, "F2": exact, "F3": sampled}, "scope full")
    assert mixed == {
        "name": "kernel_phi",
        "verdict": "sampled-pass",
        "detail": "3 covariants; exact: F1, F2; sampled, >=20 trials: F3; scope full",
    }
    assert row(dict.fromkeys(("F1", "F2", "F3"), exact))["detail"] == "3 covariants; exact"
    assert row(dict.fromkeys(("F1", "F2", "F3"), sampled)) == {
        "name": "kernel_phi",
        "verdict": "sampled-pass",
        "detail": "3 covariants; sampled, >=20 trials each",
    }


def test_suite_json_is_deterministic_for_fixed_seed():
    cfg = RunConfig(entries=("ex5.2", "ex6.4"), seed=7)
    first = to_json(run_suite(cfg))
    second = to_json(run_suite(cfg))
    assert first == second
    assert "runtime_ms" not in first


def test_timings_are_opt_in():
    cfg = RunConfig(entries=("ex5.2",), timings=True)
    report = run_suite(cfg)
    assert "runtime_ms" in to_json(report)
    rows = _checks_by_name(report.entries[0])
    ms = {name: row["runtime_ms"] for name, row in rows.items() if "runtime_ms" in row}
    assert all(isinstance(v, float) and v == round(v, 3) for v in ms.values())
    # b_of_q only compares numbers; the index estimate does the elimination
    assert 0 < ms["b_of_q"] < ms["index_stabilized"]


def _untimed(report):
    return [[{k: v for k, v in c.items() if k != "runtime_ms"} for c in e["checks"]]
            for e in report.entries]


def test_timings_reach_every_row():
    # entry rows, the table comparison, a negative control and a table row's checks
    cfg = RunConfig(entries=("ex5.2", "table1/1a"), negative_controls=True, timings=True)
    report = run_suite(cfg)
    rows = [c for entry in report.entries for c in entry["checks"]]
    assert {"table_row_comparison", "kernel_phi_control_mixed"} <= {c["name"] for c in rows}
    assert len(report.entries[1]["checks"]) == 3
    assert [c["name"] for c in rows if "runtime_ms" not in c] == []
    plain = run_suite(RunConfig(entries=cfg.entries, negative_controls=True))
    assert "runtime_ms" not in to_json(plain)
    assert _untimed(report) == _untimed(plain)
    # the text report prints every time, on a table target's verdict line too
    text = to_text(report)
    verdicts = [line for line in text.splitlines() if "construction_audit PASS" in line]
    assert len(verdicts) == 1 and verdicts[0].count(" ms]") == 3
    assert text.count(" ms]") == len(rows)
    assert re.sub(r"  \[\d+\.\d{3} ms\]", "", text) == to_text(plain)


def test_jobs_pool_matches_serial_bytes():
    # the fork pool of run_suite, with two workers
    targets = ("ex5.2", "ex6.4", "table1/1a", "table4/3a")
    serial = to_json(run_suite(RunConfig(entries=targets, jobs=1)))
    assert to_json(run_suite(RunConfig(entries=targets, jobs=2))) == serial


def test_gs_row_computes_each_stabiliser_once(monkeypatch, record):
    calls = record("lie.stabiliser")["lie.stabiliser"]
    cfg = RunConfig(samples=7)
    rows = _checks_by_name(run_entry("ex-adjoint", cfg))
    # ex-adjoint runs every row that reads the sample
    for name in ("gs_dimension_toral", "quotient_dim_estimate", "independence_generic",
                 "kernel_span", "rais_consistency"):
        assert rows[name]["verdict"] == "sampled-pass", name
    # the proved stabiliser of the first point is the only one: kernel_span
    # reads the proof, and ex5.2 has no kernel_span row
    assert len(calls) == 1
    calls.clear()
    assert _checks_by_name(run_entry("ex5.2", cfg))["gs_dimension_toral"]["verdict"] == "sampled-pass"
    assert len(calls) == 1
    # without the proof, ex-adjoint's kernel_span computes each point's stabiliser once
    import semicov.lie as lie

    calls.clear()
    monkeypatch.setattr(lie, "fixed_slice_is_dense", lambda *args: False)
    assert _checks_by_name(run_entry("ex-adjoint", cfg)) == rows
    points = [tuple(c.args[1]) for c in calls]
    assert len(points) == cfg.samples == len(set(points))


def test_table_row_ranks_each_point_once(monkeypatch, record):
    """gs and quotient read one estimate.  With the fixed-point slice
    certificate refused, the row ranks each sampled point once, by the
    kernel that gives its stabiliser, and makes no other rank."""
    import semicov.lie as lie

    calls = record("linalg.rank", "linalg.rank_and_kernel")
    monkeypatch.setattr(lie, "fixed_slice_is_dense", lambda *args: False)
    cfg = RunConfig(samples=6)
    report = run_table_row("table1/1a", cfg)
    rows = _checks_by_name(report)
    assert rows["gs_dimension_toral"]["verdict"] == "sampled-pass"
    assert rows["quotient_dim_estimate"]["verdict"] == "sampled-pass"
    # one orbit-map matrix (dim V rows, columns x_a.v for the dim g basis
    # elements) per point
    shapes = [(c.args[0].nrows, c.args[0].ncols) for c in calls["linalg.rank_and_kernel"]]
    assert calls["linalg.rank"] == [] and shapes == [(15, 13)] * cfg.samples


def _zero_point_sample(rep, ctx, *labels):
    """A stand-in for ``lie.stabiliser_sample`` holding only the zero point
    of ``rep``: on the adjoint sl2 module g_x = sl2, which is not abelian."""
    from semicov.lie import StabiliserSample, stabiliser

    return StabiliserSample(rep, [0] * rep.dim_v, stabiliser(rep, [0] * rep.dim_v))


@pytest.mark.parametrize("bound", [5, 10])
def test_rais_row_reuses_index_and_honours_bound(monkeypatch, record, bound):
    import semicov.verify as verify

    calls = record("semidirect.index_estimate")["semidirect.index_estimate"]
    report = run_entry("ex5.2", RunConfig(bound=bound))
    rows = _checks_by_name(report)
    assert rows["index_stabilized"]["verdict"] == "sampled-pass"
    assert rows["rais_consistency"]["verdict"] == "sampled-pass"
    # one estimate of ind q, shared by both rows; g_x is abelian, so its
    # index is its dimension and is not estimated
    assert [c.args[1].bound for c in calls] == [bound]

    calls.clear()
    monkeypatch.setattr(verify, "stabiliser_sample", _zero_point_sample)
    rows = _checks_by_name(run_entry("ex-adjoint", RunConfig(overrides=(("n", 2),), bound=bound)))
    # ind q, then the index of the 3-dimensional non-abelian stabiliser
    assert [(c.args[0].dim, c.args[1].bound) for c in calls] == [(6, bound), (3, bound)]
    witness = rows["rais_consistency"]["witness"]
    assert witness["stab_dim"] == 3 and witness["stab_index"] == 1
    assert rows["rais_consistency"]["verdict"] == "fail"  # the zero point is not generic


@pytest.mark.parametrize("samples", [20, 7])
def test_kirillov_even_reads_the_index_sample(record, samples):
    """The row checks every form the index estimate ranked and counts every
    point it drew.  ex5.2's generic stabiliser is proved abelian, so each
    batch stops at its first point of the Rais rank: one form a batch."""
    calls = record("linalg.skew_rank")["linalg.skew_rank"]
    report = run_entry("ex5.2", RunConfig(samples=samples))
    ranked = [(c.args[0].nrows, c.result) for c in calls]  # (order, rank) of every skew form ranked
    names = [c["name"] for c in report["checks"]]
    assert names.index("kirillov_even") + 1 == names.index("index_stabilized")
    row = _checks_by_name(report)["kirillov_even"]
    drawn = 2 * max(1, samples // 2)
    assert row == {"name": "kirillov_even", "verdict": "sampled-pass",
                   "detail": "form rank even at %d sampled points" % drawn}
    # Kirillov forms of q are ranked only by the index estimate, and each is even
    dim_q = max(n for n, _ in ranked)
    forms = [r for n, r in ranked if n == dim_q]
    assert len(forms) == 2 and all(r % 2 == 0 for r in forms)


def test_every_kirillov_form_is_ranked_by_kirillov_rank(monkeypatch, record):
    """``semidirect.kirillov_rank`` is the one path to ``skew_rank``: each
    index estimate ranks each of its points through it, once, the estimate
    of a non-abelian g_x in ``rais_consistency`` included."""
    import semicov.verify as verify

    calls = record("semidirect.kirillov_rank", "linalg.skew_rank", "semidirect.index_estimate")
    run_entry("ex6.1", RunConfig(overrides=(("n", 4),)))
    monkeypatch.setattr(verify, "stabiliser_sample", _zero_point_sample)
    run_entry("ex-adjoint", RunConfig(overrides=(("n", 2),)))
    estimates = calls["semidirect.index_estimate"]
    assert [c.args[0].dim for c in estimates] == [31, 6, 3]  # ind q twice, then ind sl2
    ranked = sum(len(c.result.ranks) for c in estimates)
    assert len(calls["semidirect.kirillov_rank"]) == len(calls["linalg.skew_rank"]) == ranked > 0


def test_samples_and_bound_reach_every_sampled_row(record):
    import re

    draws = record("sampling.rand_vector")["sampling.rand_vector"]
    entries = ("ex5.1", "ex5.3", "ex6.2", "ex6.3/iii", "ex6.4")
    cfg = RunConfig(entries=entries, mode="sampled", samples=50, bound=7)
    counted = {}
    for entry in run_suite(cfg).entries:
        for row in entry["checks"]:
            assert row["verdict"] != "fail", row
            found = re.search(r"(\d+) (trials|samples|sampled points)", row.get("detail", ""))
            if found:
                counted[(entry["id"], row["name"])] = int(found.group(1))
    assert counted.pop(("ex5.3", "witness_plane")) == 10
    for extra in ("vanishing_top_coefficient", "companion_identity"):
        assert ("ex5.1", extra) in counted
    assert ("ex5.3", "invariant_degrees") in counted
    for extra in ("form_conditions", "minor_covariant", "minor_identity"):
        assert ("ex6.3/iii", extra) in counted
    for entry, extra in (("ex5.3", "block_power_structure"), ("ex6.2", "det_even"),
                         ("ex6.4", "minor_identity")):
        assert (entry, extra) in counted
    assert counted and all(n == 50 for n in counted.values()), counted
    assert draws and {c.args[2] for c in draws} == {7}


def test_kirillov_even_fails_on_an_odd_rank_with_its_point():
    from semicov.catalog import build_construction, get_entry
    from semicov.semidirect import IndexEstimate, SemidirectProduct
    from semicov.verify import _check_kirillov_even

    q = SemidirectProduct(build_construction(get_entry("ex5.2"), {}).module)
    eta = list(range(q.dim))
    ranks = [([1] * q.dim, 4), (eta, 3), ([2] * q.dim, 5)]
    est = IndexEstimate(index=0, max_rank=5, stabilised=True, drawn=3, ranks=ranks)
    row = _check_kirillov_even(q, est)
    assert row["verdict"] == "fail"
    assert row["witness"] == {"xi": eta[: q.dim_g], "v": eta[q.dim_g :]}


def test_report_failed_property():
    green = Report(config={}, entries=[{"checks": [{"verdict": "pass"}, {"verdict": "skipped"}]}])
    assert not green.failed
    red = Report(config={}, entries=[{"checks": [{"verdict": "pass"}, {"verdict": "fail"}]}])
    assert red.failed


def test_negative_controls_reported_as_passes():
    cfg = RunConfig(entries=("ex5.2",), negative_controls=True)
    rep = run_entry("ex5.2", cfg)
    checks = _checks_by_name(rep)
    row = checks["kernel_phi_control_mixed"]
    assert row["verdict"] == "pass"
    assert "sum to zero" in row["detail"]


def test_controls_absent_without_flag():
    cfg = RunConfig(entries=("ex5.2",))
    rep = run_entry("ex5.2", cfg)
    assert "kernel_phi_control_mixed" not in _checks_by_name(rep)


def test_below_minimum_override_degrades_to_skip():
    cfg = RunConfig(entries=("ex6.1",), overrides=(("n", 3),))
    rep = run_entry("ex6.1", cfg)
    assert len(rep["checks"]) == 1
    row = rep["checks"][0]
    assert row["name"] == "construction_audit"
    assert row["verdict"] == "skipped"


def test_alias_targets_resolve():
    cfg = RunConfig(entries=("adjoint",))
    report = run_suite(cfg)
    assert report.entries[0]["id"] == "ex-adjoint"


def test_unknown_table_target_raises():
    with pytest.raises(KeyError):
        run_suite(RunConfig(entries=("table9/9",)))


def test_run_config_settles_its_targets(monkeypatch):
    import dataclasses

    import semicov.verify as verify

    cfg = RunConfig(entries=("adjoint", "ex-adjoint", "table1/1a", "EX5.2", "table1/1a"))
    # canonical ids in the order given, each once
    assert cfg.targets == ("ex-adjoint", "table1/1a", "ex5.2")
    assert cfg.targets is cfg.targets
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.targets = ()
    assert RunConfig().targets == tuple(verify.default_targets())
    with pytest.raises(ValueError, match=r"no target takes parameter\(s\) k, m$"):
        RunConfig(entries=("ex6.1",), overrides=(("m", 2), ("k", 3)))
    with pytest.raises(ValueError, match=r"no target takes parameter\(s\) n$"):
        RunConfig(entries=("table1/1a",), overrides=(("n", 5),))
    # run_suite maps run_target over the settled targets and resolves nothing
    for name in ("resolve_id", "get_row", "get_entry"):
        monkeypatch.setattr(verify, name, lambda *a: pytest.fail("resolved again"))
    monkeypatch.setattr(verify, "run_target", lambda name, c: {"id": name, "checks": []})
    assert [e["id"] for e in run_suite(cfg).entries] == list(cfg.targets)


def test_table_rows_keep_their_pinned_parameters():
    # ex6.4 takes n; table1/1a runs at its pinned n = 3
    report = run_suite(RunConfig(entries=("ex6.4", "table1/1a"), overrides=(("n", 4),)))
    assert [e["parameters"] for e in report.entries] == [{"n": 4}, {"n": 3}]
    assert report.config["parameters"] == {"n": 4}


def test_metadata_table_row_reports_single_skip():
    rep = run_table_row("table2/6", RunConfig())
    assert rep["kind"] == "table"
    assert len(rep["checks"]) == 1
    assert rep["checks"][0]["verdict"] == "skipped"


def test_module_table_row_reports_real_checks():
    rep = run_table_row("table2/8", RunConfig())
    names = [c["name"] for c in rep["checks"]]
    assert "construction_audit" in names
    assert all(c["verdict"] in ("pass", "sampled-pass") for c in rep["checks"])


def test_jsonable_fraction_and_nesting():
    assert jsonable(Fraction(3, 2)) == "3/2"
    assert jsonable([Fraction(1, 3), 2]) == ["1/3", 2]


def test_text_rendering_headers_and_marks():
    cfg = RunConfig(entries=("ex5.2",), seed=7)
    text = to_text(run_suite(cfg))
    assert text.startswith("verification run: seed 7")
    assert "PASS" in text
    assert "ex5.2" in text


def test_cli_list_mentions_every_entry_and_row(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "ex6.3/i (executable)" in out
    assert "table1/4b (metadata)" in out
    assert "ex5.3/gl (executable)" in out


def test_cli_show_entry(capsys):
    assert cli.main(["show", "ex5.3"]) == 0
    out = capsys.readouterr().out
    assert "covariant degrees: k, 2k, ..., (n-1)k" in out
    assert "invariant degrees: k, 2k, ..., nk" in out


def test_cli_show_table_row(capsys):
    assert cli.main(["show", "table2/5"]) == 0
    out = capsys.readouterr().out
    assert "table2/5" in out


def test_cli_run_json_round_trip(capsys):
    assert cli.main(["run", "--entry", "ex5.2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"][0]["id"] == "ex5.2"
    assert payload["config"]["seed"] == 0


def test_cli_run_writes_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["run", "--entry", "ex5.2", "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["entries"][0]["id"] == "ex5.2"


def test_cli_run_out_to_devnull_or_a_fifo(tmp_path, capsys):
    """os.devnull and a FIFO cannot be truncated: the report is written to
    them as they are, and the run exits 0.  A regular file is still
    rewritten from its start."""
    assert cli.main(["run", "--entry", "ex5.2", "--out", os.devnull]) == 0
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert cli.main(["run", "--entry", "ex5.2", "--format", "json", "--out", str(fifo)]) == 0
    reader.join(60)
    assert json.loads(got[0])["entries"][0]["id"] == "ex5.2"
    out = tmp_path / "report.json"
    out.write_text("an older and longer report\n" * 1000)
    assert cli.main(["run", "--entry", "ex5.2", "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["entries"][0]["id"] == "ex5.2"
    assert capsys.readouterr().err == ""


def test_cli_unknown_ids_exit_2(tmp_path, capsys):
    assert cli.main(["run", "--entry", "no-such-thing"]) == 2
    old = tmp_path / "report.txt"
    old.write_text("old report\n")
    assert cli.main(["run", "--entry", "no-such-thing", "--out", str(old)]) == 2
    assert old.read_text() == "old report\n"
    assert cli.main(["show", "no-such-thing"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["--entry", "nope"], ["--entry", "table9/9"],
                                  ["--entry", "ex6.1", "--m", "2"],
                                  ["--entry", "table1/1a", "--n", "5"]])
def test_cli_usage_errors_come_before_out(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_suite", lambda cfg: pytest.fail("a target ran"))
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("old report\n")
    for out in (None, new, old):
        assert cli.main(["run", *argv] + (["--out", str(out)] if out else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
    assert not new.exists() and old.read_text() == "old report\n"


def test_cli_reports_failure_exit_code(monkeypatch, capsys):
    class _Red:
        failed = True
        config = {"seed": 0, "mode": "auto", "samples": 20}
        entries = []

    monkeypatch.setattr(cli, "run_suite", lambda cfg: _Red())
    assert cli.main(["run", "--entry", "ex5.2", "--format", "json"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("knob", [("--samples", "0"), ("--samples", "-1"), ("--bound", "0"),
                                  ("--jobs", "0"), ("--jobs", "-1"),
                                  ("--out", "/nonexistent/dir/x.json"), ("--out", ".")])
def test_cli_bad_knob_is_usage_error(knob, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_suite", lambda cfg: pytest.fail("a target ran"))
    assert cli.main(["run", "--entry", "ex5.2", *knob]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if knob[0] == "--out":
        assert captured.err.startswith("error: cannot write %s: " % knob[1])
        return
    assert captured.err.startswith("error: %s must be at least 1" % knob[0][2:])
    with pytest.raises(ValueError):
        RunConfig(**{knob[0][2:]: int(knob[1])})


def test_cli_run_that_verifies_nothing_exits_2(capsys):
    assert cli.main(["run", "--entry", "ex6.4", "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert "skip" in captured.out
    assert captured.err.startswith("error: every check was skipped")


def test_cli_exact_mode_refusal_is_a_skipped_row(tmp_path, capsys):
    # the README example: lift_invariance at ex5.1 lives in 55 variables
    out = tmp_path / "report.json"
    argv = ["run", "--entry", "ex5.1", "--mode", "exact", "--negative-controls"]
    assert cli.main(argv + ["--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = {row["name"]: row for row in json.loads(out.read_text())["entries"][0]["checks"]}
    assert rows["lift_invariance"] == {
        "name": "lift_invariance",
        "verdict": "skipped",
        "detail": "exact identity refused: 55 vars, degree 5",
    }
    assert rows["poisson_commute"]["verdict"] == "pass"  # the run went on
    assert not any(row["verdict"] == "fail" for row in rows.values())


def test_cli_run_default_format_is_text(capsys):
    assert cli.main(["run", "--entry", "ex5.2"]) == 0
    assert capsys.readouterr().out.startswith("verification run: seed 0")
