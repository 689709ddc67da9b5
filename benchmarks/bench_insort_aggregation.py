"""In-sort early aggregation vs sort-then-aggregate.

Offset-value codes make duplicate detection free, so "group by" can
fold aggregate state inside run generation and after every merge level
— the data volume collapses to the distinct-key count after level one,
shrinking both spill traffic and later-level comparisons.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.harness import format_table
from repro.ovc.stats import ComparisonStats
from repro.sorting.external import ExternalMergeSort
from repro.sorting.insort import external_sort_grouped
from repro.storage.pages import PageManager

N_KEYS = 64


def _rows(n_rows: int, seed: int = 0) -> list[tuple]:
    rng = random.Random(seed)
    return [(rng.randrange(N_KEYS), rng.randrange(4), 1) for _ in range(n_rows)]


def _late(rows, capacity, fan_in, stats, pages):
    """Baseline: full sort first, aggregate afterwards."""
    sorter = ExternalMergeSort(
        (0,), memory_capacity=capacity, fan_in=fan_in,
        run_generation="load_sort", page_manager=pages,
    )
    result = sorter.sort(rows)
    stats.merge(result.total_stats)
    out = []
    for row, ovc in zip(result.rows, result.ovcs):
        if out and ovc[0] >= 1:
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((row[0], 1))
    return out


def test_early_aggregation_saves_spill_and_comparisons(n_rows_small):
    rows = _rows(n_rows_small * 4)
    capacity, fan_in = max(64, n_rows_small // 16), 4

    early_stats, early_pages = ComparisonStats(), PageManager()
    early, _stats, info = external_sort_grouped(
        rows, (0,), [("count", None)],
        memory_capacity=capacity, fan_in=fan_in,
        stats=early_stats, page_manager=early_pages,
    )

    late_stats, late_pages = ComparisonStats(), PageManager()
    late = _late(rows, capacity, fan_in, late_stats, late_pages)
    assert early == late

    print()
    print(
        format_table(
            [
                {
                    "plan": "in-sort aggregation",
                    "row_cmp": early_stats.row_comparisons,
                    "bytes_spilled": early_pages.stats.bytes_written,
                },
                {
                    "plan": "sort then aggregate",
                    "row_cmp": late_stats.row_comparisons,
                    "bytes_spilled": late_pages.stats.bytes_written,
                },
            ],
            f"Early vs late aggregation, {len(rows):,} rows, "
            f"{N_KEYS} groups",
        )
    )
    assert early_pages.stats.bytes_written < late_pages.stats.bytes_written / 2
    assert early_stats.row_comparisons < late_stats.row_comparisons
    # Level-one collapse leaves roughly the per-run distinct counts.
    assert info["rows_per_level"][0] <= (len(rows) // capacity + 1) * N_KEYS


@pytest.mark.parametrize("plan", ["early", "late"])
def test_aggregation_runtime(benchmark, n_rows_small, plan):
    rows = _rows(n_rows_small * 2)
    capacity, fan_in = max(64, n_rows_small // 16), 4
    benchmark.group = "in-sort vs post-sort aggregation"
    if plan == "early":
        out = benchmark(
            lambda: external_sort_grouped(
                rows, (0,), [("count", None)],
                memory_capacity=capacity, fan_in=fan_in,
            )[0]
        )
    else:
        out = benchmark(
            lambda: _late(rows, capacity, fan_in, ComparisonStats(), PageManager())
        )
    assert sum(r[1] for r in out) == len(rows)
