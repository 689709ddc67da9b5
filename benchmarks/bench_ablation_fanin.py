"""Ablation: graceful degradation of the run merge (Section 3.2).

With more pre-existing runs than the merge fan-in, the merge proceeds
in waves; later waves lose the no-infix-comparison guarantee.  This
bench sweeps the fan-in cap on a many-run input and reports the cost
curve — single-step wide merges stay cheapest, and the degradation is
graceful (cost grows with the number of waves, not abruptly).
"""

from __future__ import annotations

import pytest

from repro.bench.harness import format_table
from repro.core.modify import modify_sort_order
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec
from repro.ovc.stats import ComparisonStats
from repro.workloads.generators import random_sorted_table

SCHEMA = Schema.of("A", "B")
SPEC_IN = SortSpec.of("A", "B")
SPEC_OUT = SortSpec.of("B", "A")

FAN_INS = (None, 64, 16, 4, 2)


def _table(n_rows: int):
    # ~256 pre-existing runs (distinct A).
    return random_sorted_table(
        SCHEMA, SPEC_IN, n_rows, domains=[256, 1 << 20], seed=31
    )


def test_fanin_degradation_curve(n_rows_small):
    table = _table(n_rows_small)
    rows = []
    baseline_rows = None
    for fan_in in FAN_INS:
        stats = ComparisonStats()
        result = modify_sort_order(
            table, SPEC_OUT, method="merge_runs", stats=stats,
            config=ExecutionConfig(max_fan_in=fan_in),
        )
        if baseline_rows is None:
            baseline_rows = result.rows
        else:
            assert result.rows == baseline_rows
        rows.append(
            {
                "max_fan_in": fan_in if fan_in is not None else "unbounded",
                "row_cmp": stats.row_comparisons,
                "col_cmp": stats.column_comparisons,
                "rows_moved": stats.rows_moved,
            }
        )
    print()
    print(
        format_table(
            rows,
            f"Graceful degradation: merge fan-in sweep, {n_rows_small:,} rows",
        )
    )
    # Balanced merging performs ~n*log2(runs) row comparisons no matter
    # how it is staged; the degradation cost is *data movement* — every
    # extra wave re-moves all rows.
    assert rows[0]["row_cmp"] <= rows[-1]["row_cmp"] * 1.05
    moved = [r["rows_moved"] for r in rows]
    assert moved[0] < moved[-1]
    assert moved == sorted(moved)


@pytest.mark.parametrize("fan_in", [None, 8, 2], ids=["unbounded", "8", "2"])
def test_fanin_runtime(benchmark, n_rows_small, fan_in):
    table = _table(n_rows_small)
    benchmark.group = "ablation: merge fan-in"
    result = benchmark(
        modify_sort_order, table, SPEC_OUT, "merge_runs",
        config=ExecutionConfig(max_fan_in=fan_in),
    )
    assert len(result) == len(table)
