"""Tests for k-way merging and the internal sorts."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs, verify_ovcs
from repro.ovc.stats import ComparisonStats
from repro.sorting.internal import (
    quicksort_with_stats,
    sort_baseline,
    tournament_sort,
)
from repro.sorting.merge import kway_merge

rows2_st = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=40)


def _as_run(rows):
    rows = sorted(rows)
    return rows, derive_ovcs(rows, (0, 1))


@given(st.lists(rows2_st, min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_kway_merge_with_codes(runs_raw):
    runs = [_as_run(r) for r in runs_raw]
    stats = ComparisonStats()
    rows, ovcs = kway_merge(runs, (0, 1), stats)
    assert rows == sorted(r for raw in runs_raw for r in raw)
    assert verify_ovcs(rows, ovcs, (0, 1))


@given(st.lists(rows2_st, min_size=1, max_size=6))
@settings(max_examples=30, deadline=None)
def test_kway_merge_without_codes_matches(runs_raw):
    runs = [(sorted(r), None) for r in runs_raw]
    stats = ComparisonStats()
    rows, ovcs = kway_merge(runs, (0, 1), stats, use_ovc=False)
    assert rows == sorted(r for raw in runs_raw for r in raw)
    assert ovcs is None
    assert stats.ovc_comparisons == 0


@given(rows2_st)
@settings(max_examples=50, deadline=None)
def test_tournament_sort_correct_with_codes(rows):
    stats = ComparisonStats()
    got, ovcs = tournament_sort(rows, (0, 1), stats)
    assert got == sorted(rows)
    assert verify_ovcs(got, ovcs, (0, 1))


@given(rows2_st)
@settings(max_examples=30, deadline=None)
def test_sorters_agree(rows):
    stats = ComparisonStats()
    a, _ = tournament_sort(rows, (0, 1), stats)
    b = quicksort_with_stats(rows, (0, 1), ComparisonStats())
    c = sort_baseline(rows, (0, 1))
    assert a == b == c == sorted(rows)


def test_tournament_sort_comparison_bound():
    """Tournament sorting approaches log2(N!) row comparisons and the
    OVC machinery bounds column comparisons to about N x K."""
    import random

    rng = random.Random(7)
    n, k = 1024, 4
    rows = [tuple(rng.randrange(8) for _ in range(k)) for _ in range(n)]
    stats = ComparisonStats()
    got, ovcs = tournament_sort(rows, tuple(range(k)), stats)
    assert got == sorted(rows)
    lower_bound = n * math.log2(n / math.e)
    assert stats.row_comparisons <= 1.2 * n * math.log2(n)
    assert stats.row_comparisons >= lower_bound * 0.8
    assert stats.column_comparisons <= 1.5 * n * k


def test_descending_direction():
    rows = [(1, 5), (2, 1), (2, 9), (0, 0)]
    stats = ComparisonStats()
    got, ovcs = tournament_sort(
        rows, (0, 1), stats, directions=(False, True)
    )
    assert got == sorted(rows, key=lambda r: (-r[0], r[1]))
    assert verify_ovcs(got, ovcs, (0, 1), (False, True))
