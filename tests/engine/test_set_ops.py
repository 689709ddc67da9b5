"""Tests for sort-based set operations."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.aggregate import Distinct
from repro.engine.operators import Operator
from repro.engine.scans import TableScan
from repro.engine.set_ops import Except, Intersect, UnionAll, UnionDistinct
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import verify_ovcs

SCHEMA = Schema.of("A", "B")
SPEC = SortSpec.of("A", "B")

rows_st = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=40)


def scan(rows) -> TableScan:
    table = Table(SCHEMA, sorted(rows), SPEC)
    table.with_ovcs()
    return TableScan(table)


class Uncoded(Operator):
    """A scan of ``rows`` in order, without codes."""

    def __init__(self, rows) -> None:
        self._scan = scan(rows)
        super().__init__(SCHEMA, SPEC)

    def __iter__(self):
        for row, _ovc in self._scan:
            yield row, None


def inputs(lrows, rrows):
    """The two inputs coded, then both without codes."""
    return [(scan(lrows), scan(rrows)), (Uncoded(lrows), Uncoded(rrows))]


@given(rows_st, rows_st)
@settings(max_examples=60, deadline=None)
def test_union_all(lrows, rrows):
    op = UnionAll(scan(lrows), scan(rrows))
    out = list(op)
    rows = [r for r, _o in out]
    assert rows == sorted(lrows + rrows)
    if rows:
        assert verify_ovcs(rows, [o for _r, o in out], (0, 1))


@given(rows_st, rows_st)
@settings(max_examples=60, deadline=None)
def test_intersect(lrows, rrows):
    for left, right in inputs(lrows, rrows):
        out = list(Intersect(left, right))
        rows = [r for r, _o in out]
        assert rows == sorted(set(lrows) & set(rrows))
        if rows and isinstance(left, TableScan):
            assert verify_ovcs(rows, [o for _r, o in out], (0, 1))


@given(rows_st, rows_st)
@settings(max_examples=60, deadline=None)
def test_except(lrows, rrows):
    for left, right in inputs(lrows, rrows):
        out = list(Except(left, right))
        rows = [r for r, _o in out]
        assert rows == sorted(set(lrows) - set(rrows))
        if rows and isinstance(left, TableScan):
            assert verify_ovcs(rows, [o for _r, o in out], (0, 1))


@given(rows_st, rows_st)
@settings(max_examples=60, deadline=None)
def test_union_distinct(lrows, rrows):
    for left, right in inputs(lrows, rrows):
        rows = [r for r, _o in UnionDistinct(left, right)]
        assert rows == sorted(set(lrows) | set(rrows))


@given(rows_st, rows_st)
@settings(max_examples=30, deadline=None)
def test_coded_union_via_unionall_distinct(lrows, rrows):
    op = Distinct(UnionAll(scan(lrows), scan(rrows)))
    out = list(op)
    rows = [r for r, _o in out]
    assert rows == sorted(set(lrows) | set(rrows))
    if rows:
        assert verify_ovcs(rows, [o for _r, o in out], (0, 1))


def test_intersect_needs_no_column_comparisons_on_coded_duplicates():
    """Within-input duplicate detection comes from codes alone; only
    the cross-input group alignment compares keys."""
    left = scan([(1, 1)] * 5 + [(2, 2)] * 5)
    right = scan([(2, 2)] * 3)
    op = Intersect(left, right)
    rows = [r for r, _o in op]
    assert rows == [(2, 2)]
    # Alignment: (1,1) vs (2,2) and (2,2) vs (2,2): 2 group comparisons
    # of <= 2 columns each; duplicates cost nothing.
    assert op.stats.column_comparisons <= 4


def test_mismatched_inputs_rejected():
    other = Table(Schema.of("X", "B"), [], SortSpec.of("X", "B"))
    with pytest.raises(ValueError):
        UnionAll(scan([]), TableScan(other))
    unsorted = Table(SCHEMA, [(1, 1)])
    with pytest.raises(ValueError):
        Intersect(scan([]), TableScan(unsorted))
