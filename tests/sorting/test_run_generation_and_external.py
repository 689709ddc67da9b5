"""Tests for run generation and the external merge sort."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ovc.derive import verify_ovcs
from repro.ovc.stats import ComparisonStats
from repro.sorting.external import ExternalMergeSort
from repro.sorting.run_generation import (
    generate_runs_load_sort,
    generate_runs_replacement_selection,
)
from repro.storage.pages import PageManager

rows_st = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=80)


@given(rows_st, st.integers(1, 16))
@settings(max_examples=50, deadline=None)
def test_replacement_selection_runs_are_sorted_and_complete(rows, capacity):
    stats = ComparisonStats()
    runs = generate_runs_replacement_selection(rows, capacity, (0, 1), stats)
    merged = sorted(r for run, _ovcs in runs for r in run)
    assert merged == sorted(rows)
    for run_rows, ovcs in runs:
        assert run_rows == sorted(run_rows)
        assert verify_ovcs(run_rows, ovcs, (0, 1))


@given(rows_st, st.integers(1, 16))
@settings(max_examples=50, deadline=None)
def test_load_sort_runs(rows, capacity):
    stats = ComparisonStats()
    runs = generate_runs_load_sort(rows, capacity, (0, 1), stats)
    assert sum(len(r) for r, _o in runs) == len(rows)
    for run_rows, ovcs in runs:
        assert len(run_rows) <= capacity
        assert run_rows == sorted(run_rows)
        assert verify_ovcs(run_rows, ovcs, (0, 1))


def test_replacement_selection_doubles_run_length():
    """On random input, replacement selection produces runs averaging
    about twice the memory capacity (the classic 2M result)."""
    rng = random.Random(3)
    rows = [(rng.randrange(10_000), 0) for _ in range(20_000)]
    capacity = 100
    stats = ComparisonStats()
    runs = generate_runs_replacement_selection(rows, capacity, (0, 1), stats)
    avg = len(rows) / len(runs)
    assert 1.6 * capacity <= avg <= 2.6 * capacity


def test_replacement_selection_sorted_input_single_run():
    rows = [(i, 0) for i in range(1000)]
    runs = generate_runs_replacement_selection(
        rows, 10, (0, 1), ComparisonStats()
    )
    assert len(runs) == 1


def test_replacement_selection_reverse_input_minimal_runs():
    rows = [(i, 0) for i in range(100, 0, -1)]
    runs = generate_runs_replacement_selection(
        rows, 10, (0, 1), ComparisonStats()
    )
    # Reverse order defeats replacement selection: runs equal capacity.
    assert len(runs) == 10


@given(rows_st, st.integers(1, 10), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_external_sort_correct(rows, capacity, fan_in):
    sorter = ExternalMergeSort(
        (0, 1), memory_capacity=capacity, fan_in=fan_in
    )
    result = sorter.sort(rows)
    assert result.rows == sorted(rows)
    assert verify_ovcs(result.rows, result.ovcs, (0, 1))


def test_external_sort_phase_split_hypothesis3():
    """Hypothesis 3: run generation performs most comparisons when
    rows-per-run far exceeds the run count."""
    rng = random.Random(1)
    rows = [(rng.randrange(1 << 20), 0) for _ in range(4096)]
    sorter = ExternalMergeSort((0, 1), memory_capacity=256, fan_in=64)
    result = sorter.sort(rows)
    assert result.initial_runs > 1
    assert (
        result.run_generation_stats.row_comparisons
        > result.merge_stats.row_comparisons
    )


def test_external_sort_multilevel_merge():
    rng = random.Random(2)
    rows = [(rng.randrange(1000), 0) for _ in range(2000)]
    sorter = ExternalMergeSort(
        (0, 1), memory_capacity=50, fan_in=2, run_generation="load_sort"
    )
    result = sorter.sort(rows)
    assert result.rows == sorted(rows)
    assert result.merge_levels > 1


def test_external_sort_io_accounting():
    rng = random.Random(4)
    rows = [(rng.randrange(1000), 0) for _ in range(2000)]
    pages = PageManager(page_bytes=1024)
    sorter = ExternalMergeSort(
        (0, 1), memory_capacity=100, fan_in=4, page_manager=pages
    )
    result = sorter.sort(rows)
    assert result.io.pages_written > 0
    assert result.io.bytes_written >= result.io.pages_written  # > 1 B/page
    # Initial runs are written once and read once per merge level.
    assert result.io.bytes_read >= result.io.bytes_written - result.io.bytes_read / 2


def test_internal_input_no_io():
    rows = [(i, 0) for i in range(10)]
    sorter = ExternalMergeSort((0, 1), memory_capacity=100)
    result = sorter.sort(rows)
    assert result.initial_runs == 1
    assert result.merge_levels == 0
    assert result.io.pages_written == 0


def test_invalid_configuration_rejected():
    with pytest.raises(ValueError):
        ExternalMergeSort((0,), fan_in=1)
    with pytest.raises(ValueError):
        ExternalMergeSort((0,), run_generation="bogus")
    with pytest.raises(ValueError):
        generate_runs_load_sort([], 0, (0,), ComparisonStats())
    with pytest.raises(ValueError):
        generate_runs_replacement_selection([], 0, (0,), ComparisonStats())


def test_replacement_selection_exploits_near_sortedness():
    """Related orders often yield a SINGLE run under replacement
    selection when memory spans a couple of segments — the von Neumann
    effect the paper's related-work section credits."""
    rng = random.Random(7)
    rows = sorted(
        (rng.randrange(64), rng.randrange(1000), rng.randrange(1000))
        for _ in range(8000)
    )
    pages = PageManager()
    result = ExternalMergeSort(
        (0, 2, 1), memory_capacity=1000, page_manager=pages,
        run_generation="replacement",
    ).sort(rows)
    assert result.rows == sorted(rows, key=lambda r: (r[0], r[2], r[1]))
    assert result.initial_runs == 1
    assert pages.stats.pages_written == 0  # one run: purely internal
