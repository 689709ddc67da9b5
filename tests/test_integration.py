"""Cross-subsystem integration tests: storage -> engine -> core paths
that a downstream user would actually wire together."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modify import modify_sort_order
from repro.engine import (
    Distinct,
    Filter,
    GroupBy,
    MergeJoin,
    Project,
    Sort,
    TableScan,
)
from repro.engine.scans import BTreeScan, ColumnStoreScan
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import verify_ovcs
from repro.ovc.stats import ComparisonStats
from repro.storage.btree import BTree
from repro.storage.colstore import ColumnStore
from repro.storage.lsm import LsmForest
from repro.storage.rowstore import PrefixTruncatedStore
from repro.workloads.generators import random_sorted_table

SCHEMA = Schema.of("A", "B", "C")
SPEC = SortSpec.of("A", "B", "C")


def _table(n=400, seed=0) -> Table:
    return random_sorted_table(SCHEMA, SPEC, n, domains=[6, 8, 12], seed=seed)


def test_btree_to_modified_order_to_colstore():
    """Index scan -> order modification -> columnar compression: the
    codes flow end to end without ever being re-derived."""
    table = _table()
    tree = BTree.bulk_load(table, order=16)
    scanned = BTreeScan(tree).to_table()
    assert scanned.ovcs == table.ovcs

    stats = ComparisonStats()
    modified = modify_sort_order(scanned, SortSpec.of("A", "C", "B"), stats=stats)
    assert modified.is_sorted()

    store = ColumnStore.from_table(modified)
    back = store.to_table()
    assert back.rows == modified.rows
    assert back.ovcs == modified.ovcs


def test_colstore_to_rowstore_round_trip_through_modification():
    table = _table(seed=1)
    col = ColumnStore.from_table(table)
    scanned = ColumnStoreScan(col).to_table()
    modified = modify_sort_order(scanned, SortSpec.of("A", "C", "B"))
    trunc = PrefixTruncatedStore.from_table(modified)
    back = trunc.to_table()
    assert back.rows == modified.rows
    assert back.ovcs == modified.ovcs


def test_lsm_to_engine_pipeline():
    """Forest -> merged scan -> filter -> group-by, codes intact."""
    rng = random.Random(3)
    forest = LsmForest(SCHEMA, SPEC)
    for _ in range(3):
        forest.ingest(
            [(rng.randrange(5), rng.randrange(5), rng.randrange(9)) for _ in range(100)]
        )
    merged = forest.scan_merged()
    kept = Filter(TableScan(merged), lambda r: r[2] != 0)
    grouped = GroupBy(kept, ["A", "B"], [("count", None), ("sum", "C")])
    rows = grouped.rows()
    # Reference computation.
    from collections import Counter, defaultdict

    counts: Counter = Counter()
    sums: dict = defaultdict(int)
    for part in forest.partitions:
        for a, b, c in part.rows:
            if c != 0:
                counts[(a, b)] += 1
                sums[(a, b)] += c
    expected = sorted((a, b, counts[(a, b)], sums[(a, b)]) for a, b in counts)
    assert rows == expected


def test_sort_operator_chain_with_join():
    """Two differently-ordered views of one dataset, joined after an
    order modification on one side."""
    left = _table(seed=4)  # sorted A,B,C
    right_rows = sorted(left.rows, key=lambda r: (r[1], r[0], r[2]))
    right = Table(SCHEMA, right_rows, SortSpec.of("B", "A", "C")).with_ovcs()

    left_sorted = Sort(TableScan(left), SortSpec.of("B", "A"))
    join = MergeJoin(
        left_sorted,
        TableScan(right),
        ["B", "A"],
        ["B", "A"],
    )
    rows = join.rows()
    # Every row matches at least itself.
    assert len(rows) >= len(left)
    assert left_sorted.executed == "modify_sort_order"


def test_distinct_projection_of_modified_order():
    table = _table(seed=5)
    modified = modify_sort_order(table, SortSpec.of("A", "C", "B"))
    distinct_ac = Distinct(
        Project(TableScan(modified), ["A", "C"]), ["A", "C"]
    )
    out = list(distinct_ac)
    rows = [r for r, _o in out]
    assert rows == sorted({(r[0], r[2]) for r in table.rows})
    assert verify_ovcs(rows, [o for _r, o in out], (0, 1))
    # All duplicate elimination came from codes.
    assert distinct_ac.stats.column_comparisons == 0


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_fuzz_full_stack(seed):
    """Randomized end-to-end: random sorted data through b-tree,
    modification, and verification."""
    rng = random.Random(seed)
    table = _table(n=rng.randrange(0, 200), seed=seed)
    order = rng.choice(
        [("A", "C", "B"), ("B", "A", "C"), ("C", "B", "A"), ("A", "B"), ("B",)]
    )
    spec = SortSpec(order)
    result = modify_sort_order(table, spec)
    assert list(result.rows) == sorted(table.rows, key=spec.key_for(SCHEMA))
    assert verify_ovcs(result.rows, result.ovcs, spec.positions(SCHEMA))
