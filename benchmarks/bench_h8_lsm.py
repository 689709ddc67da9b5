"""Hypothesis 8: merging pre-existing runs extends to log-structured
merge forests and partitioned b-trees — aligned segments let the forest
be re-sorted one segment at a time across partitions."""

from __future__ import annotations

import random

import pytest

from repro.bench.harness import format_table
from repro.model import Schema, SortSpec
from repro.ovc.stats import ComparisonStats
from repro.sorting.internal import tournament_sort
from repro.storage.lsm import LsmForest

SCHEMA = Schema.of("A", "B", "C")
SPEC = SortSpec.of("A", "B", "C")
NEW_ORDER = SortSpec.of("A", "C", "B")


def _forest(n_rows: int, n_partitions: int = 4, seed: int = 13) -> LsmForest:
    rng = random.Random(seed)
    forest = LsmForest(SCHEMA, SPEC)
    per = n_rows // n_partitions
    for _ in range(n_partitions):
        batch = [
            (rng.randrange(16), rng.randrange(32), rng.randrange(256))
            for _ in range(per)
        ]
        forest.ingest(batch)
    return forest


def test_h8_segmented_modification_correct(n_rows_small):
    forest = _forest(n_rows_small)
    stats = ComparisonStats()
    result = forest.modify_order_segmented(NEW_ORDER, stats)
    all_rows = [r for p in forest.partitions for r in p.rows]
    assert list(result.rows) == sorted(all_rows, key=lambda r: (r[0], r[2], r[1]))

    # Baseline: flatten the forest and sort from scratch.
    baseline = ComparisonStats()
    tournament_sort(all_rows, (0, 2, 1), baseline)
    print()
    print(
        format_table(
            [
                {"plan": "aligned segments across partitions", **stats.as_dict()},
                {"plan": "flatten + full sort", **baseline.as_dict()},
            ],
            f"H8: LSM forest re-sort, {n_rows_small:,} rows, "
            f"{forest.partition_count} partitions",
        )
    )
    assert stats.column_comparisons < baseline.column_comparisons


def test_h8_benchmark_segmented(benchmark, n_rows_small):
    forest = _forest(n_rows_small)
    benchmark.group = "h8: forest re-sort"
    result = benchmark(forest.modify_order_segmented, NEW_ORDER)
    assert len(result) == n_rows_small // 4 * 4


def test_h8_benchmark_flatten_sort(benchmark, n_rows_small):
    forest = _forest(n_rows_small)
    all_rows = [r for p in forest.partitions for r in p.rows]
    benchmark.group = "h8: forest re-sort"
    rows, _ovcs = benchmark(
        tournament_sort, all_rows, (0, 2, 1), ComparisonStats()
    )
    assert len(rows) == len(all_rows)
