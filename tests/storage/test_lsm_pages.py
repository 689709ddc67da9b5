"""Tests for the LSM forest (hypothesis 8) and page accounting."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import verify_ovcs
from repro.ovc.stats import ComparisonStats
from repro.storage.lsm import LsmForest
from repro.storage.pages import PageManager, row_size_bytes

SCHEMA = Schema.of("A", "B", "C")
SPEC = SortSpec.of("A", "B", "C")

rows_st = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    max_size=40,
)


@given(st.lists(rows_st, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_forest_merged_scan(batches):
    forest = LsmForest(SCHEMA, SPEC)
    for batch in batches:
        forest.ingest(batch)
    merged = forest.scan_merged()
    assert list(merged.rows) == sorted(r for b in batches for r in b)
    assert verify_ovcs(merged.rows, merged.ovcs, (0, 1, 2))


@given(st.lists(rows_st, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_forest_order_modification_across_partitions(batches):
    """Hypothesis 8: sort the whole forest into A,C,B one aligned
    segment at a time."""
    forest = LsmForest(SCHEMA, SPEC)
    for batch in batches:
        forest.ingest(batch)
    new_order = SortSpec.of("A", "C", "B")
    stats = ComparisonStats()
    result = forest.modify_order_segmented(new_order, stats)
    all_rows = [r for b in batches for r in b]
    assert list(result.rows) == sorted(all_rows, key=lambda r: (r[0], r[2], r[1]))
    assert verify_ovcs(
        result.rows, result.ovcs, new_order.positions(SCHEMA)
    )


def test_aligned_segments_union_across_partitions():
    forest = LsmForest(SCHEMA, SPEC)
    forest.ingest([(1, 0, 0), (3, 0, 0)])
    forest.ingest([(2, 0, 0), (3, 1, 1)])
    assert forest.aligned_segments(1) == [(1,), (2,), (3,)]


def test_compaction_reduces_partitions():
    forest = LsmForest(SCHEMA, SPEC)
    for i in range(4):
        forest.ingest([(i, j, 0) for j in range(5)])
    assert forest.partition_count == 4
    merged = forest.compact()
    assert forest.partition_count == 1
    assert len(merged) == 20


def test_modification_needs_shared_prefix():
    forest = LsmForest(SCHEMA, SPEC)
    forest.ingest([(1, 2, 3)])
    with pytest.raises(ValueError):
        forest.modify_order_segmented(SortSpec.of("C", "B", "A"))


def test_add_partition_validates():
    forest = LsmForest(SCHEMA, SPEC)
    with pytest.raises(ValueError):
        forest.add_partition(Table(Schema.of("X"), [], SortSpec.of("X")))


def test_row_size_model():
    assert row_size_bytes((1, 2, 3)) == 24
    assert row_size_bytes(("abc", b"1234", 5)) == 3 + 4 + 8


def test_page_manager_accounting():
    pages = PageManager(page_bytes=64)
    run = pages.spill_run([(i, i, i) for i in range(10)])  # 240 bytes
    assert pages.stats.pages_written == 4  # ceil(240/64)
    assert pages.stats.bytes_written == 240
    run.read()
    assert pages.stats.pages_read == 4
    assert pages.stats.bytes_read == 240
    pages.charge_scan([(1, 2, 3)])
    assert pages.stats.pages_read == 5


def test_empty_spill():
    pages = PageManager()
    run = pages.spill_run([])
    assert pages.stats.pages_written == 0
    assert list(run) == []
