"""Command-line interface: run verification suites, list and show entries.

Exit codes: 0 when no check failed (skips allowed), 1 when at least one
check failed, 2 for usage errors: an unknown entry or table row id,
``--samples``, ``--bound`` or ``--jobs`` below 1, an ``--n``/``--m``/``--k``
that no entry target takes (table rows keep their pinned parameters), an
``--out`` that cannot be written (in a missing directory, or a directory), or
a run in which every check was skipped.  Every usage error but the last is
reported before ``--out`` is opened, so none of them creates or changes it.
"""
from __future__ import annotations

import argparse
import contextlib
import sys

from .catalog import TABLE_CAPTIONS, all_entries, all_rows, get_entry, get_row, rows_for_entry
from .verify import RunConfig, run_suite, to_json, to_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="verify the catalog of covariant families in exact arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run verification checks")
    run.add_argument(
        "--entry",
        action="append",
        default=[],
        metavar="ID",
        help="entry id or alias (repeatable); default: the full suite",
    )
    run.add_argument("--n", type=int, default=None, help="override the size parameter n")
    run.add_argument("--m", type=int, default=None, help="override the size parameter m")
    run.add_argument("--k", type=int, default=None, help="override the length parameter k")
    run.add_argument("--seed", type=int, default=0, help="seed for all sampled checks")
    run.add_argument(
        "--mode",
        choices=("exact", "sampled", "auto"),
        default="auto",
        help="exact expansion, sampling, or size-based resolution per check",
    )
    run.add_argument("--samples", type=int, default=20, help="sample count per sampled check")
    run.add_argument("--bound", type=int, default=10, help="integer sampling bound")
    run.add_argument("--jobs", type=int, default=1, help="verify entries in parallel")
    run.add_argument("--format", choices=("json", "text"), default="text")
    run.add_argument("--out", default=None, metavar="PATH", help="write the report to a file")
    run.add_argument(
        "--negative-controls",
        action="store_true",
        help="also run covariants that must fail their checks",
    )
    run.add_argument(
        "--timings",
        action="store_true",
        help="include per-check runtimes (reports are no longer byte-reproducible)",
    )

    sub.add_parser("list", help="list catalog entries and table rows")

    show = sub.add_parser("show", help="describe one entry or table row")
    show.add_argument("id", help="entry id, alias, or table row id")

    return parser


def _cmd_run(args) -> int:
    overrides = tuple((k, getattr(args, k)) for k in ("n", "m", "k") if getattr(args, k) is not None)
    try:
        cfg = RunConfig(
            entries=tuple(args.entry),
            overrides=overrides,
            seed=args.seed,
            mode=args.mode,
            samples=args.samples,
            bound=args.bound,
            jobs=args.jobs,
            negative_controls=args.negative_controls,
            timings=args.timings,
        )
    except (KeyError, ValueError) as err:  # a bad knob, an unknown id or an unused override
        print("error: %s" % err.args[0], file=sys.stderr)
        return 2
    try:
        # append mode keeps an old report until the new one is written
        out = open(args.out, "a") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as err:
        print("error: cannot write %s: %s" % (args.out, err.strerror), file=sys.stderr)
        return 2
    with out as fh:
        report = run_suite(cfg)
        if args.out:
            fh.truncate(0)
        fh.write(to_json(report) if args.format == "json" else to_text(report))
    if report.failed:
        return 1
    if report.ran_nothing:
        print("error: every check was skipped; nothing was verified", file=sys.stderr)
        return 2
    return 0


def _cmd_list(_args) -> int:
    print("entries:")
    for entry in all_entries():
        params = ", ".join("%s=%d" % (p.name, p.default) for p in entry.params) or "-"
        label = "%s (executable)" % entry.id
        print("  %-28s %s  [defaults: %s]" % (label, entry.title, params))
    print()
    print("table rows:")
    for row in all_rows():
        label = "%s (metadata)" % row.id
        cols = dict(row.printed)
        print("  %-28s %s | %s" % (label, cols["group"], cols["module"]))
    return 0


def _show_entry(name: str) -> None:
    entry = get_entry(name)
    print("%s (executable)" % entry.id)
    print("  title:   %s" % entry.title)
    print("  group:   %s" % entry.group)
    print("  module:  %s" % entry.module)
    if entry.params:
        parts = ["%s (default %d, minimum %d)" % (p.name, p.default, p.minimum) for p in entry.params]
        print("  parameters: %s" % "; ".join(parts))
    else:
        print("  parameters: none")
    if entry.degrees_text:
        print("  covariant degrees: %s" % entry.degrees_text)
    if entry.invariant_degrees_text:
        print("  invariant degrees: %s" % entry.invariant_degrees_text)
    if entry.aliases:
        print("  aliases: %s" % ", ".join(entry.aliases))
    rows = [row.id for row, _ in rows_for_entry(entry.id)]
    if rows:
        print("  table rows: %s" % ", ".join(rows))
    for note in entry.notes:
        print("  note: %s" % note)


def _show_row(row_id: str) -> None:
    row = get_row(row_id)
    print("%s (metadata)" % row.id)
    print("  table %d: %s" % (row.table, TABLE_CAPTIONS[row.table]))
    for key, value in row.printed:
        print("  %-16s %s" % (key + ":", value))
    links = [link.entry_id for link in row.links]
    if links:
        print("  verified via: %s" % ", ".join(links))
    if row.module_spec is not None:
        print("  module check: instantiated and validated in the full suite")
    if row.note:
        print("  note: %s" % row.note)


def _cmd_show(args) -> int:
    try:
        if args.id.startswith("table"):
            _show_row(args.id)
        else:
            _show_entry(args.id)
    except KeyError as err:  # an unknown entry or row id
        print("error: %s" % err.args[0], file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list":
        return _cmd_list(args)
    return _cmd_show(args)


if __name__ == "__main__":
    sys.exit(main())
