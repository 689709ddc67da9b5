"""Tests for prefix-truncated row storage and the RLE column store,
including hypothesis 6 (comparison-free transposition)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs
from repro.storage.colstore import ColumnStore
from repro.storage.rowstore import PrefixTruncatedStore

SCHEMA = Schema.of("A", "B", "C", "payload")
SPEC = SortSpec.of("A", "B", "C")

rows_st = st.lists(
    st.tuples(
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 99)
    ),
    max_size=50,
)


def make_table(rows) -> Table:
    rows = sorted(rows, key=lambda r: r[:3])
    return Table(SCHEMA, rows, SPEC).with_ovcs()


@given(rows_st)
@settings(max_examples=60, deadline=None)
def test_rowstore_roundtrip(rows):
    table = make_table(rows)
    store = PrefixTruncatedStore.from_table(table)
    back = store.to_table()
    assert back.rows == table.rows
    assert back.ovcs == table.ovcs


@given(rows_st)
@settings(max_examples=60, deadline=None)
def test_colstore_roundtrip(rows):
    table = make_table(rows)
    store = ColumnStore.from_table(table)
    back = store.to_table()
    assert back.rows == table.rows
    assert back.ovcs == table.ovcs


@given(rows_st)
@settings(max_examples=60, deadline=None)
def test_rle_and_prefix_truncation_suppress_identical_values(rows):
    """Figure 1: both formats store exactly the same key values —
    sum over rows of (arity - offset)."""
    table = make_table(rows)
    row_store = PrefixTruncatedStore.from_table(table)
    col_store = ColumnStore.from_table(table)
    expected = sum(3 - min(off, 3) for off, _v in table.ovcs)
    assert row_store.stored_key_values() == expected
    assert col_store.stored_key_values() == expected


def test_colstore_segment_boundaries_from_run_lengths():
    rows = [(1, 1, 0, 0), (1, 2, 0, 0), (2, 1, 0, 0), (2, 1, 1, 0)]
    table = make_table(rows)
    store = ColumnStore.from_table(table)
    assert store.segment_boundaries(1) == [0, 2]
    assert store.segment_boundaries(2) == [0, 1, 2]


def test_colstore_rejects_unsorted():
    import pytest

    table = Table(SCHEMA, [(1, 1, 1, 1)])
    with pytest.raises(ValueError):
        ColumnStore.from_table(table)
    with pytest.raises(ValueError):
        PrefixTruncatedStore.from_table(table)


def test_duplicates_cost_no_storage():
    rows = [(1, 1, 1, 5)] * 4
    table = make_table(rows)
    store = PrefixTruncatedStore.from_table(table)
    # First row stores 3 key values; duplicates store none.
    assert store.stored_key_values() == 3
    col = ColumnStore.from_table(table)
    assert col.stored_key_values() == 3
    # Payload column remains uncompressed.
    assert len(col.plain_columns["payload"]) == 4


def test_colstore_scan_matches_derivation():
    """Transposition yields codes equal to a fresh (comparison-heavy)
    derivation, but computes them from run boundaries alone."""
    rows = [(1, 1, 0, 9), (1, 1, 0, 8), (1, 2, 2, 7), (3, 0, 0, 6)]
    table = make_table(rows)
    store = ColumnStore.from_table(table)
    got = [ovc for _row, ovc in store.iter_rows_with_ovcs()]
    assert got == derive_ovcs(table.rows, (0, 1, 2))
