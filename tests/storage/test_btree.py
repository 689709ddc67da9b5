"""Tests for the B+-tree: ordering, code supply, skip scans (Figure 4)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs, verify_ovcs
from repro.storage.btree import BTree

SCHEMA = Schema.of("A", "B")
SPEC = SortSpec.of("A", "B")

rows_st = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=120)


def test_bulk_load_scan_order_and_codes():
    rows = sorted((i % 7, i % 11) for i in range(500))
    table = Table(SCHEMA, rows, SPEC)
    tree = BTree.bulk_load(table, order=8)
    got_rows, got_ovcs = zip(*tree.scan())
    assert list(got_rows) == rows
    assert verify_ovcs(got_rows, got_ovcs, (0, 1))
    assert tree.height > 1


@given(rows_st)
@settings(max_examples=40, deadline=None)
def test_insert_maintains_order_and_codes(rows):
    tree = BTree(SCHEMA, SPEC, order=6)
    for row in rows:
        tree.insert(row)
    got = [row for row, _ovc in tree.scan()]
    assert got == sorted(rows)
    ovcs = [ovc for _row, ovc in tree.scan()]
    assert verify_ovcs(got, ovcs, (0, 1))


@given(rows_st)
@settings(max_examples=30, deadline=None)
def test_search(rows):
    tree = BTree(SCHEMA, SPEC, order=6)
    for row in rows:
        tree.insert(row)
    for row in rows[:10]:
        assert tree.search(row)
    assert not tree.search((99, 99))


def test_distinct_prefixes_via_skip_scan():
    rng = random.Random(0)
    rows = sorted((rng.randrange(6), rng.randrange(50)) for _ in range(300))
    tree = BTree.bulk_load(Table(SCHEMA, rows, SPEC), order=8)
    expected = sorted({(a,) for a, _b in rows})
    assert tree.distinct_prefixes(1) == expected
    # The skip scan touches far fewer nodes than a full scan would.
    reads_before = tree.node_reads
    tree.distinct_prefixes(1)
    skip_cost = tree.node_reads - reads_before
    reads_before = tree.node_reads
    for _ in tree.scan():
        pass
    full_scan_leaves = tree.node_reads - reads_before
    assert skip_cost <= full_scan_leaves * tree.height


def test_figure4_prefix_run_cursors_merge():
    """Figure 4: per-run cursors straight out of the index merge into
    the B,A order — the b-tree supplies rows *and* codes."""
    rng = random.Random(1)
    rows = sorted((rng.randrange(5), rng.randrange(30)) for _ in range(200))
    tree = BTree.bulk_load(Table(SCHEMA, rows, SPEC), order=8)
    cursors = tree.prefix_run_cursors(1)
    assert len(cursors) == len({a for a, _b in rows})
    collected = []
    for cursor in cursors:
        run = list(cursor)
        run_rows = [r for r, _o in run]
        # Each run holds one distinct A and is sorted on B.
        assert len({a for a, _b in run_rows}) == 1
        assert run_rows == sorted(run_rows)
        collected.extend(run_rows)
    assert sorted(collected) == rows


def test_bad_order_rejected():
    with pytest.raises(ValueError):
        BTree(SCHEMA, SPEC, order=2)


def test_empty_tree():
    tree = BTree(SCHEMA, SPEC)
    assert list(tree.scan()) == []
    assert not tree.search((1, 1))
    assert tree.distinct_prefixes(1) == []
