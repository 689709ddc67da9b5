"""Tests for scans, filter, project, limit, top-k."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.misc import Filter, Limit, Project, TopK
from repro.engine.scans import BTreeScan, ColumnStoreScan, TableScan
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import verify_ovcs
from repro.storage.btree import BTree
from repro.storage.colstore import ColumnStore

SCHEMA = Schema.of("A", "B", "C")
SPEC = SortSpec.of("A", "B", "C")

rows_st = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    max_size=40,
)


def make_table(rows) -> Table:
    table = Table(SCHEMA, sorted(rows), SPEC)
    table.with_ovcs()
    return table


def test_table_scan_yields_codes():
    table = make_table([(1, 2, 3), (1, 2, 4)])
    got = list(TableScan(table))
    assert got == [((1, 2, 3), (0, 1)), ((1, 2, 4), (2, 4))]


def test_scans_agree_across_storage_formats():
    rows = sorted((i % 3, i % 5, i % 7) for i in range(100))
    table = make_table(rows)
    t = TableScan(table)
    b = BTreeScan(BTree.bulk_load(table, order=8))
    c = ColumnStoreScan(ColumnStore.from_table(table))
    assert list(t) == list(b) == list(c)


@given(rows_st, st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_filter_repairs_codes_via_max_folding(rows, threshold):
    """Filtered streams stay correctly coded with no comparisons."""
    table = make_table(rows)
    op = Filter(TableScan(table), lambda r: r[1] >= threshold)
    out_rows, out_ovcs = [], []
    for row, ovc in op:
        out_rows.append(row)
        out_ovcs.append(ovc)
    assert out_rows == [r for r in table.rows if r[1] >= threshold]
    assert verify_ovcs(out_rows, out_ovcs, (0, 1, 2))
    assert op.stats.column_comparisons == 0


def test_project_keeps_ordering_prefix():
    table = make_table([(1, 2, 3), (1, 3, 0), (2, 0, 0)])
    op = Project(TableScan(table), ["A", "B"])
    assert op.ordering == SortSpec.of("A", "B")
    rows, ovcs = zip(*op)
    assert rows == ((1, 2), (1, 3), (2, 0))
    assert verify_ovcs(rows, ovcs, (0, 1))


def test_project_loses_ordering_without_prefix():
    table = make_table([(1, 2, 3)])
    op = Project(TableScan(table), ["B", "C"])
    assert op.ordering is None
    assert list(op) == [((2, 3), None)]


def test_project_renumbers_duplicates():
    table = make_table([(1, 2, 3), (1, 2, 4)])
    op = Project(TableScan(table), ["A", "B"])
    got = list(op)
    # The second row was (2, 4) under the 3-column key; under A,B it is
    # an exact duplicate.
    assert got[1] == ((1, 2), (2, 0))


def test_limit():
    table = make_table([(i, 0, 0) for i in range(10)])
    assert len(list(Limit(TableScan(table), 3))) == 3
    assert list(Limit(TableScan(table), 0)) == []
    with pytest.raises(ValueError):
        Limit(TableScan(table), -1)


@given(rows_st, st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_topk_matches_sorted_head(rows, k):
    table = Table(SCHEMA, list(rows))  # unsorted, no codes
    op = TopK(TableScan(table), SortSpec.of("B", "C"), k)
    got = [row for row, _ovc in op]
    expected = sorted(rows, key=lambda r: (r[1], r[2]))[:k]
    assert got == expected


def test_topk_on_sorted_input_degenerates_to_limit():
    table = make_table([(i, 0, 0) for i in range(10)])
    op = TopK(TableScan(table), SortSpec.of("A",), 4)
    got = [row for row, _ovc in op]
    assert got == [(i, 0, 0) for i in range(4)]


def test_explain_renders_plan_tree():
    table = make_table([(1, 2, 3)])
    op = Limit(Filter(TableScan(table), lambda r: True), 1)
    text = op.explain()
    assert "Limit" in text and "Filter" in text and "TableScan" in text


def test_to_table_roundtrip():
    table = make_table([(1, 2, 3), (2, 0, 0)])
    back = TableScan(table).to_table()
    assert back is table.with_ovcs()
    assert back.rows == table.rows
    assert back.ovcs == table.with_ovcs().ovcs
