"""Tests for Sort, MergeJoin, GroupBy, Distinct, Aggregate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import reset_cache
from repro.engine.aggregate import Aggregate, Distinct, GroupBy
from repro.engine.merge_join import MergeJoin
from repro.engine.scans import TableScan
from repro.engine.sort_op import Sort
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import verify_ovcs

SCHEMA = Schema.of("A", "B", "C")
SPEC = SortSpec.of("A", "B", "C")

rows_st = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    max_size=40,
)


def make_table(rows, sort=True) -> Table:
    if sort:
        table = Table(SCHEMA, sorted(rows), SPEC)
        table.with_ovcs()
    else:
        table = Table(SCHEMA, list(rows))
    return table


@given(rows_st)
@settings(max_examples=40, deadline=None)
def test_sort_passthrough_when_satisfied(rows):
    table = make_table(rows)
    op = Sort(TableScan(table), SortSpec.of("A", "B"))
    got = [row for row, _ovc in op]
    assert got == list(table.rows)
    assert op.executed == "passthrough"


@given(rows_st)
@settings(max_examples=40, deadline=None)
def test_sort_modifies_related_order(rows):
    # Under REPRO_CACHE=on a repeated example would be served from the
    # process-wide cache and report executed == "cache".
    reset_cache()
    table = make_table(rows)
    op = Sort(TableScan(table), SortSpec.of("A", "C", "B"))
    out = list(op)
    got = [row for row, _ovc in out]
    assert got == sorted(table.rows, key=lambda r: (r[0], r[2], r[1]))
    assert op.executed == "modify_sort_order"
    assert verify_ovcs(got, [o for _r, o in out], (0, 2, 1))


@given(rows_st)
@settings(max_examples=40, deadline=None)
def test_sort_unordered_input(rows):
    reset_cache()  # see test_sort_modifies_related_order
    table = make_table(rows, sort=False)
    op = Sort(TableScan(table), SortSpec.of("B", "C"))
    got = [row for row, _ovc in op]
    assert got == sorted(rows, key=lambda r: (r[1], r[2]))
    assert op.executed == "internal_sort"


def test_sort_external_path():
    import random

    rng = random.Random(0)
    rows = [(rng.randrange(50), rng.randrange(50), 0) for _ in range(500)]
    table = make_table(rows, sort=False)
    op = Sort(TableScan(table), SortSpec.of("A", "B"), memory_capacity=64)
    got = [row for row, _ovc in op]
    assert got == sorted(rows, key=lambda r: (r[0], r[1]))
    assert op.executed == "external_sort"


def _join_tables():
    left_schema = Schema.of("k", "lv")
    right_schema = Schema.of("k", "rv")
    left = Table(left_schema, [(1, 10), (2, 20), (2, 21), (4, 40)], SortSpec.of("k"))
    right = Table(right_schema, [(2, 200), (2, 201), (3, 300), (4, 400)], SortSpec.of("k"))
    left.with_ovcs()
    right.with_ovcs()
    return left, right


def test_merge_join_inner_with_duplicates():
    left, right = _join_tables()
    join = MergeJoin(TableScan(left), TableScan(right), ["k"], ["k"])
    rows = [row for row, _ovc in join]
    assert rows == [
        (2, 20, 2, 200),
        (2, 20, 2, 201),
        (2, 21, 2, 200),
        (2, 21, 2, 201),
        (4, 40, 4, 400),
    ]
    assert join.schema.columns == ("k", "lv", "r_k", "rv")


def test_merge_join_output_codes_valid():
    left, right = _join_tables()
    join = MergeJoin(TableScan(left), TableScan(right), ["k"], ["k"])
    out = list(join)
    rows = [r for r, _o in out]
    ovcs = [o for _r, o in out]
    assert verify_ovcs(rows, ovcs, (0,))


def test_merge_join_requires_sorted_inputs():
    left, right = _join_tables()
    unsorted = Table(left.schema, left.rows)  # no ordering declared
    with pytest.raises(ValueError):
        MergeJoin(TableScan(unsorted), TableScan(right), ["k"], ["k"])


@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 9)), max_size=30),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 9)), max_size=30),
)
@settings(max_examples=40, deadline=None)
def test_merge_join_matches_nested_loops(lrows, rrows):
    ls = Schema.of("k", "lv")
    rs = Schema.of("k", "rv")
    left = Table(ls, sorted(lrows), SortSpec.of("k", "lv")).with_ovcs()
    right = Table(rs, sorted(rrows), SortSpec.of("k", "rv")).with_ovcs()
    join = MergeJoin(TableScan(left), TableScan(right), ["k"], ["k"])
    got = [row for row, _ovc in join]
    expected = [
        l + r
        for l in sorted(lrows)
        for r in sorted(rrows)
        if l[0] == r[0]
    ]
    assert sorted(got) == sorted(expected)


def test_group_by_in_stream():
    rows = [(1, 1, 5), (1, 1, 7), (1, 2, 1), (2, 0, 0)]
    table = make_table(rows)
    op = GroupBy(
        TableScan(table), ["A", "B"], [("count", None), ("sum", "C"), ("max", "C")]
    )
    got = list(op)
    assert [r for r, _o in got] == [(1, 1, 2, 12, 7), (1, 2, 1, 1, 1), (2, 0, 1, 0, 0)]
    # Group boundaries came from codes: zero column comparisons.
    assert op.stats.column_comparisons == 0
    rows_only = [r[:2] for r, _o in got]
    assert verify_ovcs(rows_only, [o for _r, o in got], (0, 1))


def test_group_by_requires_compatible_order():
    table = make_table([(1, 1, 1)])
    with pytest.raises(ValueError):
        GroupBy(TableScan(table), ["B"])


def test_distinct_drops_duplicates_without_comparisons():
    rows = [(1, 1, 1), (1, 1, 1), (1, 2, 0), (1, 2, 0), (3, 0, 0)]
    table = make_table(rows)
    op = Distinct(TableScan(table))
    got = [r for r, _o in op]
    assert got == [(1, 1, 1), (1, 2, 0), (3, 0, 0)]
    assert op.stats.column_comparisons == 0


def test_distinct_on_key_prefix():
    rows = [(1, 1, 1), (1, 1, 2), (1, 2, 0), (2, 0, 0)]
    table = make_table(rows)
    op = Distinct(TableScan(table), ["A"])
    got = [r for r, _o in op]
    assert got == [(1, 1, 1), (2, 0, 0)]


def test_scalar_aggregate():
    rows = [(1, 2, 3), (4, 5, 6)]
    table = make_table(rows)
    op = Aggregate(
        TableScan(table),
        [("count", None), ("sum", "C"), ("min", "A"), ("avg", "B")],
    )
    got = list(op)
    assert got == [((2, 9, 1, 3.5), None)]


def test_group_by_avg_first_last():
    rows = [(1, 0, 2), (1, 0, 4), (2, 0, 9)]
    table = make_table(rows)
    op = GroupBy(
        TableScan(table), ["A"], [("avg", "C"), ("first", "C"), ("last", "C")]
    )
    got = [r for r, _o in op]
    assert got == [(1, 3.0, 2, 4), (2, 9.0, 9, 9)]
