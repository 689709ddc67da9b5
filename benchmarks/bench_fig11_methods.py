"""Figure 11: run time of changing A,B,C -> A,C,B with three methods —
segmented sorting only, merging pre-existing runs only, and the
combination — across segment counts (hypothesis 9).

Paper result: segment-sort-only is slowest for large segments and
improves as segments shrink; merge-only beats it for few segments but
degrades again when runs get too short; the combination is consistently
best.  One pytest-benchmark entry per (segments, method) cell plus
shape assertions over collected wall times.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.bench.figures import FIG11_METHODS, run_fig11_cell
from repro.bench.harness import format_table
from repro.ovc.stats import ComparisonStats
from repro.workloads.generators import fig11_table

#: Timings taken of each ``test_fig11_shape`` cell; the cell keeps the best.
SHAPE_ROUNDS = 9


def segment_counts(n_rows: int) -> list[int]:
    return [s for s in (2, 8, 32, 128, 512, 2048, 8192, 32768) if 2 * s <= n_rows]


@pytest.mark.parametrize("method", FIG11_METHODS)
@pytest.mark.parametrize("n_segments", (2, 32, 512))
def test_fig11_runtime(benchmark, n_rows_default, n_segments, method):
    n_segments = min(n_segments, n_rows_default // 2)
    table = fig11_table(n_rows_default, n_segments, seed=0)
    benchmark.group = f"fig11 segments={n_segments}"
    result = benchmark(run_fig11_cell, table, method)
    assert len(result) == len(table)


@pytest.mark.parametrize("method", FIG11_METHODS)
@pytest.mark.parametrize("n_segments", (2, 32, 512))
def test_fig11_runtime_fast_engine(benchmark, n_rows_default, n_segments, method):
    """The packed-code kernels on the same cells (no counters)."""
    n_segments = min(n_segments, n_rows_default // 2)
    table = fig11_table(n_rows_default, n_segments, seed=0)
    benchmark.group = f"fig11 segments={n_segments}"
    result = benchmark(run_fig11_cell, table, method, None, 8, "fast")
    assert len(result) == len(table)


def test_fig11_shape(n_rows_small):
    """The qualitative claims of Figure 11, on measured wall time and
    row comparisons."""
    timings: dict[tuple, float] = {}
    comparisons: dict[tuple, int] = {}
    counts = segment_counts(n_rows_small)
    tables = {s: fig11_table(n_rows_small, s, seed=0) for s in counts}
    # Each cell is the best of SHAPE_ROUNDS timings, one per round with
    # every cell timed in each round, so a slow spell of the host (or a
    # table's first touch) lands on all methods alike instead of on the
    # one cell it happens to hit.
    for _round in range(SHAPE_ROUNDS):
        for n_segments, table in tables.items():
            for method in FIG11_METHODS:
                stats = ComparisonStats()
                # Earlier garbage must not be collected inside one
                # timing (timeit keeps it out likewise).
                gc.collect()
                start = time.perf_counter()
                run_fig11_cell(table, method, stats)
                elapsed = time.perf_counter() - start
                cell = (n_segments, method)
                timings[cell] = min(timings.get(cell, elapsed), elapsed)
                comparisons[cell] = stats.row_comparisons

    print()
    print(
        format_table(
            [
                {
                    "segments": s,
                    **{
                        m: round(timings[(s, m)], 4)
                        for m in FIG11_METHODS
                    },
                }
                for s in counts
            ],
            f"Figure 11: seconds per method, {n_rows_small:,} rows",
        )
    )

    few, many = counts[0], counts[-1]
    # Segment-sort-only is the worst method for few, large segments.
    assert timings[(few, "segment_sort")] == max(
        timings[(few, m)] for m in FIG11_METHODS
    )
    # Its effort shrinks as segments shrink (fewer comparisons per sort).
    assert (
        comparisons[(many, "segment_sort")]
        < comparisons[(few, "segment_sort")] / 2
    )
    # Merge-only degrades at the many-segments end relative to combined.
    assert (
        comparisons[(many, "merge_runs")]
        > comparisons[(many, "combined")]
    )
    # Hypothesis 9: the combination is never beaten on comparisons...
    for s in counts:
        assert comparisons[(s, "combined")] <= min(
            comparisons[(s, "segment_sort")], comparisons[(s, "merge_runs")]
        ) + s  # segment bookkeeping tolerance
    # ... and wins overall wall time in aggregate.
    total = {
        m: sum(timings[(s, m)] for s in counts) for m in FIG11_METHODS
    }
    assert total["combined"] == min(total.values())
