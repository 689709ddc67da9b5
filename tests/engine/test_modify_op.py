"""Tests for the streaming (segment-at-a-time) modify operator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modify import modify_sort_order
from repro.engine.modify_op import StreamingModify
from repro.engine.scans import TableScan
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import verify_ovcs

SCHEMA = Schema.of("A", "B", "C")
SPEC = SortSpec.of("A", "B", "C")

rows_st = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    max_size=60,
)

ORDERS = [
    ("A", "C", "B"),
    ("A", "B", "C"),
    ("B", "A", "C"),
    ("A", "C"),
    ("B",),
    ("C", "B", "A"),
]


def scan(rows) -> TableScan:
    table = Table(SCHEMA, sorted(rows), SPEC)
    table.with_ovcs()
    return TableScan(table)


@given(rows_st, st.sampled_from(ORDERS))
@settings(max_examples=60, deadline=None)
def test_streaming_agrees_with_materializing(rows, order):
    spec = SortSpec(order)
    table = Table(SCHEMA, sorted(rows), SPEC).with_ovcs()
    expected = modify_sort_order(table, spec)
    op = StreamingModify(scan(rows), spec)
    out = list(op)
    assert [r for r, _o in out] == list(expected.rows)
    got_ovcs = [o for _r, o in out]
    assert verify_ovcs(
        [r for r, _o in out], got_ovcs, spec.positions(SCHEMA), spec.directions
    )


def test_memory_bounded_by_largest_segment():
    rows = [(a, b, c) for a in range(16) for b in range(4) for c in range(4)]
    op = StreamingModify(scan(rows), SortSpec.of("A", "C", "B"))
    out = list(op)
    assert len(out) == len(rows)
    # 16 segments of 16 rows each: the buffer never holds more.
    assert op.peak_segment_rows == 16


def test_whole_input_is_one_segment_without_prefix():
    rows = [(a, b, 0) for a in range(8) for b in range(8)]
    op = StreamingModify(scan(rows), SortSpec.of("B", "A"))
    list(op)
    assert op.peak_segment_rows == len(rows)


def test_noop_streams_through():
    rows = [(1, 2, 3), (2, 0, 0)]
    op = StreamingModify(scan(rows), SortSpec.of("A",))
    out = list(op)
    assert [r for r, _o in out] == sorted(rows)
    assert op.peak_segment_rows == 1
    assert verify_ovcs([r for r, _o in out], [o for _r, o in out], (0,))


def test_requires_ordered_coded_input():
    unordered = TableScan(Table(SCHEMA, [(1, 1, 1)]))
    with pytest.raises(ValueError):
        StreamingModify(unordered, SortSpec.of("A",))


def test_backward_plans_rejected():
    rows = [(2, 0, 0), (1, 0, 0)]
    table = Table(SCHEMA, rows, SortSpec.of("A DESC")).with_ovcs()
    with pytest.raises(ValueError, match="backward"):
        StreamingModify(TableScan(table), SortSpec.of("A"))
