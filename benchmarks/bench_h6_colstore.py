"""Hypothesis 6: run-length encoding in sorted column stores enables
efficient segment detection, comparison-free transposition to rows with
prefix truncation / offset-value codes, and efficient merging of
pre-existing runs directly off the scan."""

from __future__ import annotations

import time

import pytest

from repro.bench.harness import format_table
from repro.core.modify import modify_sort_order
from repro.engine.scans import ColumnStoreScan
from repro.model import Schema, SortSpec
from repro.ovc.derive import derive_ovcs
from repro.ovc.stats import ComparisonStats
from repro.storage.colstore import ColumnStore
from repro.workloads.generators import random_sorted_table

SCHEMA = Schema.of("A", "B", "C")
SPEC = SortSpec.of("A", "B", "C")


@pytest.fixture(scope="module")
def store(n_rows_small):
    table = random_sorted_table(
        SCHEMA, SPEC, n_rows_small, domains=[16, 64, 512], seed=9
    )
    return table, ColumnStore.from_table(table)


def test_h6_transposition_is_comparison_free(store, n_rows_small):
    table, col = store
    scan = ColumnStoreScan(col)
    out = list(scan)
    assert tuple(r for r, _o in out) == table.rows
    assert scan.stats.column_comparisons == 0
    # The codes delivered equal a fresh derivation that would have cost
    # this many column comparisons:
    stats = ComparisonStats()
    derive_ovcs(table.rows, (0, 1, 2), stats=stats)
    print()
    print(
        format_table(
            [
                {
                    "path": "column-store scan (RLE boundaries)",
                    "column_comparisons": 0,
                },
                {
                    "path": "fresh derivation",
                    "column_comparisons": stats.column_comparisons,
                },
            ],
            f"H6: cost of obtaining codes for {n_rows_small:,} rows",
        )
    )
    assert tuple(o for _r, o in out) == table.ovcs
    assert stats.column_comparisons > n_rows_small  # what was saved


def test_h6_segment_detection_from_run_lengths(store):
    table, col = store
    boundaries = col.segment_boundaries(1)
    expected = [
        i
        for i in range(len(table.rows))
        if i == 0 or table.rows[i][0] != table.rows[i - 1][0]
    ]
    assert boundaries == expected


def test_h6_order_modification_off_the_scan(store):
    """Scan the column store and re-sort A,B,C -> A,C,B; the codes from
    the scan drive the combined method."""
    table, col = store
    scanned = ColumnStoreScan(col).to_table()
    stats = ComparisonStats()
    result = modify_sort_order(scanned, SortSpec.of("A", "C", "B"), stats=stats)
    assert result.is_sorted()
    # All prefix/infix work came from the scan's codes.
    assert stats.key_extractions > 0


def _best_ms(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def test_h6_wall_time_table(store, n_rows_small):
    """Printed, not asserted: the store's rows and codes, alone and
    re-sorted to A,C,B, against the same rows sorted from scratch."""
    table, col = store
    new_order = SortSpec.of("A", "C", "B")
    new_positions = new_order.positions(SCHEMA)
    key = new_order.key_for(SCHEMA)
    rows = list(table.rows)
    timings = {
        "column-store scan (to_table)": lambda: ColumnStoreScan(col).to_table(),
        "derive_ovcs over the same rows": lambda: derive_ovcs(rows, (0, 1, 2)),
        "scan + modify_sort_order -> A,C,B": lambda: modify_sort_order(
            ColumnStoreScan(col).to_table(), new_order
        ),
        "sorted() + derive_ovcs -> A,C,B": lambda: derive_ovcs(
            sorted(rows, key=key), new_positions
        ),
    }
    print()
    print(
        format_table(
            [{"path": path, "ms": round(_best_ms(fn), 2)}
             for path, fn in timings.items()],
            f"H6: wall time for {n_rows_small:,} rows (best of 5)",
        )
    )


def test_h6_benchmark_transpose(benchmark, store):
    _table, col = store
    benchmark.group = "h6: obtaining rows+codes from a column store"
    out = benchmark(lambda: list(col.iter_rows_with_ovcs()))
    assert len(out) == len(col)


def test_h6_benchmark_fresh_derivation(benchmark, store):
    table, _col = store
    benchmark.group = "h6: obtaining rows+codes from a column store"
    out = benchmark(lambda: derive_ovcs(table.rows, (0, 1, 2)))
    assert len(out) == len(table)
