"""Storage structures under descending sort directions — the code
paths that normalize values on reconstruction."""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs, verify_ovcs
from repro.storage.btree import BTree
from repro.storage.colstore import ColumnStore
from repro.storage.rowstore import PrefixTruncatedStore

SCHEMA = Schema.of("A", "B", "pay")
SPEC = SortSpec.of("A DESC", "B")

rows_st = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 50)),
    max_size=40,
)


def build(rows) -> Table:
    rows = sorted(rows, key=SPEC.key_for(SCHEMA))
    table = Table(SCHEMA, rows, SPEC)
    table = replace(table, ovcs=derive_ovcs(rows, (0, 1), SPEC.directions))
    return table


@given(rows_st)
@settings(max_examples=40, deadline=None)
def test_rowstore_roundtrip_desc(rows):
    table = build(rows)
    back = PrefixTruncatedStore.from_table(table).to_table()
    assert back.rows == table.rows
    assert back.ovcs == table.ovcs


@given(rows_st)
@settings(max_examples=40, deadline=None)
def test_colstore_roundtrip_desc(rows):
    table = build(rows)
    back = ColumnStore.from_table(table).to_table()
    assert back.rows == table.rows
    assert back.ovcs == table.ovcs


@given(rows_st)
@settings(max_examples=30, deadline=None)
def test_btree_desc_scan_order_and_codes(rows):
    tree = BTree(SCHEMA, SPEC, order=6)
    for row in rows:
        tree.insert(row)
    got = [row for row, _ovc in tree.scan()]
    assert got == sorted(rows, key=SPEC.key_for(SCHEMA))
    ovcs = [ovc for _row, ovc in tree.scan()]
    assert verify_ovcs(got, ovcs, (0, 1), SPEC.directions)
