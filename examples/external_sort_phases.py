#!/usr/bin/env python3
"""Hypotheses 3, 4, 7: where external merge sort spends its effort, and
what pre-existing runs save.

Sorts a large unsorted input with replacement selection + multi-level
merging, reporting comparisons per phase and simulated I/O; then shows
the same data re-sorted from a related order, where run generation (and
its I/O) disappears entirely.

Run:  python examples/external_sort_phases.py
"""

from __future__ import annotations

import random

from repro import modify_sort_order
from repro import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs
from repro import ComparisonStats
from repro.sorting.external import ExternalMergeSort
from repro.storage.pages import PageManager


def main() -> None:
    rng = random.Random(23)
    n_rows = 200_000
    rows = [(rng.randrange(1 << 30), rng.randrange(100)) for _ in range(n_rows)]

    pages = PageManager()
    sorter = ExternalMergeSort(
        (0, 1),
        memory_capacity=4096,
        fan_in=8,
        run_generation="replacement",
        page_manager=pages,
    )
    result = sorter.sort(rows)
    assert result.rows == sorted(rows)

    rg, mg = result.run_generation_stats, result.merge_stats
    print(f"external merge sort of {n_rows:,} unsorted rows")
    print(
        f"  replacement selection: {result.initial_runs} initial runs "
        f"(about 2x memory each), {result.merge_levels} merge levels"
    )
    print(f"  {'phase':>16}  {'row cmp':>12}  {'col cmp':>12}")
    print(f"  {'run generation':>16}  {rg.row_comparisons:>12,}  {rg.column_comparisons:>12,}")
    print(f"  {'merging':>16}  {mg.row_comparisons:>12,}  {mg.column_comparisons:>12,}")
    share = rg.row_comparisons / (rg.row_comparisons + mg.row_comparisons)
    print(f"  run generation performs {share:.0%} of all row comparisons (H3)")
    print(
        f"  simulated I/O: {result.io.pages_written:,} pages written, "
        f"{result.io.pages_read:,} read"
    )
    print()

    # Now the H4/H7 scenario: the input is already sorted on (B, A) —
    # a related order — so sorting on (A, B) merges pre-existing runs:
    # no run generation, no run spill.
    schema = Schema.of("A", "B")
    related = sorted(rows, key=lambda r: (r[1], r[0]))
    table = Table(
        schema, related, SortSpec.of("B", "A"), derive_ovcs(related, (1, 0))
    )
    stats = ComparisonStats()
    modified = modify_sort_order(table, SortSpec.of("A", "B"), stats=stats)
    assert list(modified.rows) == result.rows
    print(f"same rows arriving sorted on (B, A), desired (A, B):")
    print(
        f"  merge of pre-existing runs: {stats.row_comparisons:,} row cmp, "
        f"{stats.column_comparisons:,} col cmp"
    )
    total = rg + mg
    print(
        f"  vs full external sort: {total.row_comparisons:,} row cmp — "
        f"{1 - stats.row_comparisons / total.row_comparisons:.0%} saved (H4)"
    )
    print("  and zero run-generation I/O: the input is its own run set (H7)")


if __name__ == "__main__":
    main()
