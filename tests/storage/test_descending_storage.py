"""Producers that build codes from known offsets — the column store,
the row store, a backward scan and the LSM forest's slice heads —
under every direction mix and string keys, against the type-strict
oracle (:func:`repro.testing.assert_table_valid`)."""

from __future__ import annotations

import random
from collections import Counter
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import modify
from repro.core.backward import reverse_table
from repro.engine.scans import ColumnStoreScan
from repro.model import Schema, SortColumn, SortSpec, Table
from repro.ovc.derive import derive_ovcs, verify_ovcs
from repro.ovc.stats import ComparisonStats
from repro.storage.btree import BTree
from repro.storage.colstore import ColumnStore
from repro.storage.lsm import LsmForest
from repro.storage.rowstore import PrefixTruncatedStore
from repro.testing import assert_table_valid

SCHEMA = Schema.of("A", "B", "S", "pay")
SPEC = SortSpec.of("A DESC", "B")

#: Ascending, descending and mixed directions, over int and string keys.
SPECS = [
    SortSpec.of("A", "B"),
    SPEC,
    SortSpec.of("A DESC", "B DESC"),
    SortSpec.of("A", "B DESC", "S"),
    SortSpec.of("S DESC", "A"),
    SortSpec.of("S", "B DESC", "A DESC"),
]

# ``A`` holds ``1`` as ``1``, ``1.0`` or ``True``: equal values,
# different codes.
rows_st = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 1.0, True, 2, 3, 4]),
        st.integers(0, 4),
        st.sampled_from(["", "a", "ab", "b"]),
        st.integers(0, 50),
    ),
    max_size=40,
)


def build(rows, spec: SortSpec = SPEC) -> Table:
    rows = sorted(rows, key=spec.key_for(SCHEMA))
    positions = spec.positions(SCHEMA)
    return Table(
        SCHEMA, rows, spec, derive_ovcs(rows, positions, spec.directions)
    )


#: A key value equal to the previous row's, of another type.
RETYPED = [(1, 0, "", 5), (1.0, 0, "", 6), (True, 0, "", 7), (1, 1, "", 8)]


def _cell_types(rows) -> list:
    return [tuple(map(type, row)) for row in rows]


@given(rows_st, st.sampled_from(SPECS))
@example(RETYPED, SortSpec.of("A"))
@example(RETYPED, SortSpec.of("A", "B"))
@example(RETYPED, SPEC)
@settings(max_examples=80, deadline=None)
def test_rowstore_roundtrip_desc(rows, spec):
    table = build(rows, spec)
    back = PrefixTruncatedStore.from_table(table).to_table()
    assert back.rows == table.rows
    assert _cell_types(back.rows) == _cell_types(table.rows)
    assert back.ovcs == table.ovcs
    assert_table_valid(back)


@given(rows_st, st.sampled_from(SPECS))
@example(RETYPED, SortSpec.of("A"))
@example(RETYPED, SortSpec.of("A", "B"))
@example(RETYPED, SPEC)
@settings(max_examples=80, deadline=None)
def test_colstore_roundtrip_desc(rows, spec):
    table = build(rows, spec)
    store = ColumnStore.from_table(table)
    back = store.to_table()
    assert back.rows == table.rows
    assert _cell_types(back.rows) == _cell_types(table.rows)
    assert back.ovcs == table.ovcs
    assert_table_valid(back)
    # Both stores keep the same values; segments follow the codes.
    rows_kept = PrefixTruncatedStore.from_table(table).stored_key_values()
    assert store.stored_key_values() == rows_kept
    for k in range(1, spec.arity + 1):
        assert store.segment_boundaries(k) == [
            i for i, (offset, _v) in enumerate(table.ovcs) if offset < k
        ]
    scan = ColumnStoreScan(store)
    assert list(scan) == list(zip(back.rows, back.ovcs))
    assert scan.to_table().ovcs == back.ovcs
    assert scan.stats.column_comparisons == 0


@given(rows_st, st.sampled_from(SPECS))
@settings(max_examples=80, deadline=None)
def test_reverse_table_roundtrip_desc(rows, spec):
    table = build(rows, spec)
    stats = ComparisonStats()
    rev = reverse_table(table, stats)
    assert rev.rows == table.rows[::-1]
    assert_table_valid(rev)
    # One extraction per code that is not a duplicate, nothing compared.
    arity = spec.arity
    assert stats.key_extractions == sum(o < arity for o, _v in rev.ovcs)
    assert stats.column_comparisons == 0
    assert reverse_table(rev).ovcs == table.ovcs


@given(st.lists(rows_st, min_size=1, max_size=3), st.sampled_from(SPECS))
@settings(max_examples=80, deadline=None)
def test_lsm_roundtrip_desc(batches, spec):
    """Slice heads are recoded from their own rows: every partition
    slice handed to ``modify_sort_order`` is a valid coded table, and a
    modification that keeps the leading column is valid on every
    direction mix."""
    forest = LsmForest(SCHEMA, spec)
    for batch in batches:
        forest.ingest(batch)
    lead, *rest = spec.columns
    new_order = SortSpec((lead, SortColumn("pay"), *rest))
    real = modify.modify_sort_order

    def checked(table, *args, **kwargs):
        assert_table_valid(table)
        return real(table, *args, **kwargs)

    with mock.patch.object(modify, "modify_sort_order", checked):
        result = forest.modify_order_segmented(new_order)
    assert_table_valid(result)
    assert Counter(result.rows) == Counter(r for b in batches for r in b)


def test_lsm_descending_leading_key():
    """Segments of a forest sorted on a descending leading key are
    found and ordered on the forest's own key."""
    rng = random.Random(1)
    schema = Schema.of("A", "B", "C")
    forest = LsmForest(schema, SortSpec.of("A DESC", "B", "C"))
    for _ in range(3):
        forest.ingest(
            [tuple(rng.randrange(4) for _ in range(3)) for _ in range(20)]
        )
    prefixes = forest.aligned_segments(2)
    assert prefixes == sorted(prefixes, key=lambda p: (-p[0], p[1]))
    seen = 0
    for prefix, slices in forest.segment_slices(2):
        for part, (lo, hi) in zip(forest.partitions, slices):
            assert all(row[:2] == prefix for row in part.rows[lo:hi])
            seen += max(0, hi - lo)
    assert seen == len(forest)
    all_rows = Counter(r for p in forest.partitions for r in p.rows)
    for cols in (("A DESC", "B"), ("A DESC", "C", "B")):
        result = forest.modify_order_segmented(SortSpec.of(*cols))
        assert_table_valid(result)
        assert Counter(result.rows) == all_rows


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
