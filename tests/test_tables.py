"""Printed summary tables: shape, cross-links, and bare-module rows.

Oracles used here:

* the column layout of each table is fixed by TABLE_COLUMNS and every row
  must print exactly those columns;
* every cross-link points at a registered catalog entry and only mentions
  parameters that entry actually has, and its printed numbers come from the
  entry's own expected values;
* bare-module rows advertise (dim V, generic stabiliser dimension,
  quotient dimension); the module dimension is checked on a fresh build
  for every such row and the sampled stabiliser dimension for two cheap
  ones (15 and 18 variables);
* reference columns carry no citation text, only the placeholder dash.
"""

from __future__ import annotations

import pytest

from semicov.catalog import (
    TABLE_CAPTIONS,
    TABLE_COLUMNS,
    all_rows,
    get_entry,
    get_row,
    quotient_dim_estimate,
    rows_for_entry,
)
from semicov.lie import stabiliser_sample
from semicov.poly import CheckContext


def test_row_count_and_tables():
    rows = all_rows()
    assert len(rows) == 29
    assert {r.table for r in rows} == {1, 2, 3, 4}
    for t in (1, 2, 3, 4):
        assert t in TABLE_CAPTIONS


def test_rows_print_exactly_their_table_columns():
    for row in all_rows():
        assert tuple(k for k, _ in row.printed) == TABLE_COLUMNS[row.table], row.id


def test_reference_columns_hold_no_citations():
    entry_ids = {"-"}
    for row in all_rows():
        for link in row.links:
            entry_ids.add(link.entry_id)
    for row in all_rows():
        printed = dict(row.printed)
        if "ref" in printed:
            # either a cross-reference into the catalog or a plain dash;
            # never free-form citation text
            assert printed["ref"] in entry_ids, (row.id, printed["ref"])


def test_links_resolve_and_use_known_parameters():
    linked = 0
    for row in all_rows():
        for link in row.links:
            linked += 1
            entry = get_entry(link.entry_id)
            names = {p.name for p in entry.params}
            if link.pinned:
                assert set(link.pinned) <= names, row.id
            assert set(link.minimum) <= names, row.id
            params = dict(link.pinned or {p.name: p.default for p in entry.params})
            if link.values is not None:
                vals = link.values(params)
                assert set(vals) <= {"l", "dim_v", "q", "quotient_dim"}, row.id
    assert linked >= 12


def test_rows_for_entry_collects_all_mentions():
    ids = {row.id for row, _link in rows_for_entry("ex5.1")}
    assert ids == {"table2/5", "table3/2", "table4/3", "table4/3a"}
    assert rows_for_entry("ex5.2")
    assert rows_for_entry("no-such-entry") == []


def test_get_row_unknown_id():
    with pytest.raises(KeyError):
        get_row("table9/1")


def test_module_rows_build_at_advertised_dimension():
    for row in all_rows():
        spec = row.module_spec
        if spec is None:
            continue
        params = dict(spec.default_params)
        expected = spec.expected(params)
        rep = spec.build(params)
        assert rep.dim_v == expected["dim_v"], row.id
        assert set(expected) <= {"dim_v", "gs", "quotient_dim"}, row.id


@pytest.mark.parametrize("row_id", ["table2/8", "table4/3a"])
def test_cheap_module_rows_sampled_stabiliser(row_id):
    row = get_row(row_id)
    spec = row.module_spec
    params = dict(spec.default_params)
    expected = spec.expected(params)
    rep = spec.build(params)
    sample = stabiliser_sample(rep, CheckContext(seed=3), "table")
    assert min(s.dim for _, s in sample.pairs) == expected["gs"]


def test_smallest_quotient_estimate_matches_printed_value():
    row = get_row("table1/1a")
    spec = row.module_spec
    params = dict(spec.default_params)
    expected = spec.expected(params)
    rep = spec.build(params)
    assert quotient_dim_estimate(rep, CheckContext(seed=5)) == expected["quotient_dim"]
