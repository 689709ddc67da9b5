"""Tests for explain_analyze plan tracing."""

from __future__ import annotations

import pytest

from repro.engine import Filter, GroupBy, MergeJoin, Sort, TableScan
from repro.engine.operators import Operator
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.query import Query
from repro.trace import Probe, explain_analyze, instrument
from repro.workloads.generators import random_sorted_table

SCHEMA = Schema.of("A", "B", "C")
SPEC = SortSpec.of("A", "B", "C")
#: Comparison counters are the reference engine's; ``auto`` counts nothing.
COUNTED = ExecutionConfig(engine="reference")


def make_table(n=200, seed=0) -> Table:
    return random_sorted_table(SCHEMA, SPEC, n, domains=[4, 5, 6], seed=seed)


def test_probe_is_transparent():
    table = make_table()
    plain = list(TableScan(table))
    probed = list(instrument(TableScan(table)))
    assert plain == probed


def test_explain_analyze_counts_per_operator():
    table = make_table()
    op = Filter(TableScan(table), lambda r: r[1] == 0)
    rows, report = explain_analyze(op)
    expected = [r for r in table.rows if r[1] == 0]
    assert rows == expected
    assert "Filter" in report and "TableScan" in report
    # The scan's probe saw every row; the filter's only the survivors.
    lines = report.splitlines()
    filter_line = next(l for l in lines if "Filter" in l)
    scan_line = next(l for l in lines if "TableScan" in l)
    assert f"-> {len(expected):,} rows" in filter_line
    assert f"-> {len(table):,} rows" in scan_line


def test_explain_analyze_join_tree():
    table = make_table()
    left = Sort(TableScan(table), SortSpec.of("B", "A"))
    right = Sort(TableScan(make_table(seed=1)), SortSpec.of("B", "A"))
    join = MergeJoin(left, right, ["B"], ["B"])
    rows, report = explain_analyze(join)
    assert "MergeJoin" in report
    assert report.count("TableScan") == 2
    assert "comparisons" in report.splitlines()[-1]
    assert len(rows) > 0


def test_explain_analyze_only_charges_this_run():
    table = make_table()
    op = GroupBy(TableScan(table), ["A"], [("count", None)])
    op.stats.column_comparisons = 123_456  # pre-existing spend
    _rows, report = explain_analyze(op)
    assert "123,456" not in report


def test_query_facade_integration():
    table = make_table()
    q = Query(table).order_by("A", "C", "B").group_by(["A"], [("count", None)])
    rows, report = explain_analyze(q.op)
    assert sum(r[1] for r in rows) == len(table)
    assert "GroupBy" in report and "Sort" in report


class ListConcat(Operator):
    """Synthetic n-ary operator holding its children in a list."""

    def __init__(self, children):
        super().__init__(children[0].schema, None, children[0].stats)
        self._inputs = list(children)

    def __iter__(self):
        for child in self._inputs:
            for row, _ovc in child:
                yield row, None

    def _children(self):
        return list(self._inputs)


def test_instrument_probes_list_held_children():
    t1, t2 = make_table(50), make_table(60, seed=2)
    op = ListConcat([TableScan(t1), TableScan(t2)])
    root = instrument(op)
    rows = [row for row, _ in root]
    assert rows == list(t1.rows + t2.rows)
    # Both list-held scans were wrapped and counted.
    probes = [c for c in op._children() if isinstance(c, Probe)]
    assert len(probes) == 2
    assert [p.rows_out for p in probes] == [50, 60]
    assert "TableScan" in explain_analyze(
        ListConcat([TableScan(t1), TableScan(t2)])
    )[1]


def test_probe_reports_inclusive_and_self_time():
    table = make_table(500)
    op = Filter(TableScan(table), lambda r: True)
    root = instrument(op)
    list(root)
    scan_probe = root.inner._children()[0]
    assert isinstance(scan_probe, Probe)
    # Inclusive time of the parent covers the child's inclusive time;
    # self time excludes it.
    assert root.seconds >= scan_probe.seconds
    assert root.self_seconds() <= root.seconds
    assert root.self_seconds() == pytest.approx(
        root.seconds - scan_probe.seconds
    )


def test_probe_self_stats_subtract_children():
    table = make_table()
    sort = Sort(TableScan(table), SortSpec.of("B", "A"), config=COUNTED)
    root = instrument(sort)
    list(root)
    scan_probe = root.inner._children()[0]
    # The sort did the comparisons, not the scan.
    assert root.self_stats().row_comparisons == \
        root.stats_delta.row_comparisons \
        - scan_probe.stats_delta.row_comparisons
    assert root.stats_delta.row_comparisons > 0


def test_report_shows_self_time_and_comparison_deltas():
    table = make_table()
    _rows, report = explain_analyze(
        Sort(TableScan(table), SortSpec.of("C"), config=COUNTED)
    )
    sort_line = next(l for l in report.splitlines() if "Sort" in l)
    assert "(self " in sort_line
    assert "cols=" in sort_line or "codes=" in sort_line
