"""Tests for the benchmark harness utilities and figure drivers."""

from __future__ import annotations

import pytest

from repro.bench.figures import (
    run_fig10_cell,
    run_fig10_experiment,
    run_fig11_cell,
    run_fig11_experiment,
)
from repro.bench.harness import (
    BenchResult,
    format_table,
    time_callable,
)
from repro.ovc.stats import ComparisonStats
from repro.workloads.generators import fig10_table, fig11_table


def test_time_callable_collects_stats_and_extras():
    def work(stats: ComparisonStats):
        stats.column_comparisons += 7
        return {"k": "v"}

    result = time_callable("label", work)
    assert result.label == "label"
    assert result.seconds >= 0
    assert result.column_comparisons == 7
    assert result.extra == {"k": "v"}
    assert result.as_row()["k"] == "v"


def test_format_table_alignment():
    text = format_table(
        [{"a": 1, "b": "xy"}, {"a": 123456, "b": "z"}], title="T"
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "b" in lines[1]
    assert "123,456" in text  # thousands separators for big ints
    assert format_table([]) == "(no rows)"


def test_fig10_cell_sorted_output():
    table = fig10_table(512, 2, n_runs=8)
    out = run_fig10_cell(table, 2, use_ovc=True)
    assert out.is_sorted()
    out2 = run_fig10_cell(table, 2, use_ovc=False)
    assert out2.rows == out.rows


def test_fig11_cell_methods_agree():
    table = fig11_table(512, 4, list_len=2)
    results = {
        m: run_fig11_cell(table, m, list_len=2).rows
        for m in ("segment_sort", "merge_runs", "combined")
    }
    assert results["segment_sort"] == results["merge_runs"] == results["combined"]


def test_experiment_drivers_small():
    r10 = run_fig10_experiment(256, list_lengths=(1, 2), n_runs=8)
    assert len(r10) == 2 * 2 * 2  # decide x len x ovc
    assert all(isinstance(r, BenchResult) for r in r10)
    r11 = run_fig11_experiment(256, segment_counts=(2, 8))
    assert len(r11) == 2 * 3  # segments x methods


def test_fig11_defaults_respect_row_count():
    results = run_fig11_experiment(64)
    segments = {r.extra["segments"] for r in results}
    assert all(2 * s <= 64 for s in segments)
