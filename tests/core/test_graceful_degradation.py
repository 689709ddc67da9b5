"""Graceful degradation (Section 3.2): when the input holds more
pre-existing runs than one merge step should carry, the merge proceeds
in multiple waves — correctness and codes must survive."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modify import modify_sort_order
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs, verify_ovcs
from repro.ovc.stats import ComparisonStats

SCHEMA = Schema.of("A", "B", "C")


def sorted_table(rows, key=("A", "B", "C")) -> Table:
    spec = SortSpec(key)
    rows = sorted(rows, key=spec.key_for(SCHEMA))
    table = Table(SCHEMA, rows, spec)
    table = replace(table, ovcs=derive_ovcs(rows, spec.positions(SCHEMA), spec.directions))
    return table


rows_st = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 9), st.integers(0, 5)),
    max_size=80,
)


@given(rows=rows_st, fan_in=st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_multiwave_merge_correct_case3(rows, fan_in):
    """A,B,C -> B,C,A (retained infix) with a tiny fan-in: many runs
    (distinct A) force several waves."""
    table = sorted_table(rows)
    spec = SortSpec.of("B", "C", "A")
    result = modify_sort_order(
        table, spec, method="merge_runs", config=ExecutionConfig(max_fan_in=fan_in)
    )
    expected = sorted(table.rows, key=lambda r: (r[1], r[2], r[0]))
    assert list(result.rows) == expected
    assert verify_ovcs(result.rows, result.ovcs, (1, 2, 0))


@given(rows=rows_st, fan_in=st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_multiwave_merge_correct_case5(rows, fan_in):
    table = sorted_table(rows)
    spec = SortSpec.of("A", "C", "B")
    result = modify_sort_order(
        table, spec, method="combined", config=ExecutionConfig(max_fan_in=fan_in)
    )
    expected = sorted(table.rows, key=lambda r: (r[0], r[2], r[1]))
    assert list(result.rows) == expected
    assert verify_ovcs(result.rows, result.ovcs, (0, 2, 1))


@given(rows=rows_st, fan_in=st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_multiwave_merge_correct_dropped_infix(rows, fan_in):
    """A,B,C -> B (dropped infix) across waves stays stable."""
    table = sorted_table(rows)
    result = modify_sort_order(
        table, SortSpec.of("B"), method="merge_runs", config=ExecutionConfig(max_fan_in=fan_in)
    )
    expected = sorted(table.rows, key=lambda r: r[1])  # stable
    assert list(result.rows) == expected
    assert verify_ovcs(result.rows, result.ovcs, (1,))


def test_multiwave_costs_more_column_comparisons_than_single():
    """The degradation is graceful but not free: later waves may touch
    infix columns that a single wide merge never would."""
    import random

    rng = random.Random(5)
    rows = [
        (rng.randrange(64), rng.randrange(4), rng.randrange(4))
        for _ in range(4096)
    ]
    table = sorted_table(rows)
    spec = SortSpec.of("B", "C", "A")

    single = ComparisonStats()
    modify_sort_order(table, spec, method="merge_runs", stats=single)
    multi = ComparisonStats()
    modify_sort_order(
        table, spec, method="merge_runs", stats=multi,
        config=ExecutionConfig(max_fan_in=4),
    )
    assert multi.column_comparisons >= single.column_comparisons


def test_invalid_fan_in_rejected():
    table = sorted_table([(1, 2, 3)])
    with pytest.raises(ValueError):
        modify_sort_order(
            table, SortSpec.of("B", "A", "C"), method="merge_runs",
            config=ExecutionConfig(max_fan_in=1),
        )


def test_fan_in_larger_than_runs_is_single_step():
    table = sorted_table([(a, b, 0) for a in range(3) for b in range(3)])
    r1 = modify_sort_order(
        table, SortSpec.of("B", "A", "C"), config=ExecutionConfig(max_fan_in=100)
    )
    r2 = modify_sort_order(table, SortSpec.of("B", "A", "C"))
    assert r1.rows == r2.rows
    assert r1.ovcs == r2.ovcs
