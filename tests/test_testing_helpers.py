"""Tests for the validation helpers in repro.testing."""

from __future__ import annotations

import pytest

from repro.core.modify import modify_sort_order
from repro.model import Schema, SortSpec, Table
from repro.ovc.stats import ComparisonStats
from repro.testing import (
    ValidationError,
    assert_sorted_on,
    assert_table_valid,
    comparison_budget,
)

SCHEMA = Schema.of("A", "B")


def test_assert_sorted_on():
    assert_sorted_on([(1, 2), (2, 1)], SortSpec.of("A"), SCHEMA)
    with pytest.raises(ValidationError, match="not sorted"):
        assert_sorted_on([(2, 1), (1, 2)], SortSpec.of("A"), SCHEMA)


def test_assert_table_valid_accepts_good_table():
    table = Table(SCHEMA, [(1, 1), (1, 2)], SortSpec.of("A", "B")).with_ovcs()
    assert_table_valid(table)


def test_assert_table_valid_catches_lies():
    table = Table(SCHEMA, [(1, 1), (1, 2)], SortSpec.of("A", "B")).with_ovcs()
    table.ovcs[1] = (0, 1)  # forged code
    with pytest.raises(ValidationError, match="code mismatch"):
        assert_table_valid(table)

    bad_order = Table(SCHEMA, [(2, 0), (1, 0)], SortSpec.of("A"))
    with pytest.raises(ValidationError):
        assert_table_valid(bad_order)

    no_spec = Table(SCHEMA, [(1, 1)])
    with pytest.raises(ValidationError, match="no sort order"):
        assert_table_valid(no_spec)

    short = Table(SCHEMA, [(1, 1), (1, 2)], SortSpec.of("A"))
    short.ovcs = [(0, 1)]
    # Bypass the constructor check deliberately to test the validator.
    with pytest.raises(ValidationError, match="codes for"):
        assert_table_valid(short)


def test_comparison_budget_passes_within_bounds():
    table = Table(
        SCHEMA, [(a, b) for a in range(4) for b in range(4)],
        SortSpec.of("A", "B"),
    ).with_ovcs()
    stats = ComparisonStats()
    with comparison_budget(stats, column_comparisons=0):
        modify_sort_order(table, SortSpec.of("B", "A"), stats=stats)


def test_comparison_budget_detects_overruns():
    stats = ComparisonStats()
    with pytest.raises(ValidationError, match="column comparison budget"):
        with comparison_budget(stats, column_comparisons=2):
            stats.column_comparisons += 3
    with pytest.raises(ValidationError, match="row comparison budget"):
        with comparison_budget(stats, row_comparisons=1):
            stats.row_comparisons += 5


def test_comparison_budget_only_counts_inside_block():
    stats = ComparisonStats()
    stats.column_comparisons = 100  # pre-existing spend is not charged
    with comparison_budget(stats, column_comparisons=1):
        stats.column_comparisons += 1


def test_assert_table_valid_is_type_strict():
    """``1.0`` equals ``1`` but is another code: a value copied from
    another row of equal key is a forgery."""
    table = Table(SCHEMA, [(0, 1), (1, 2)], SortSpec.of("A", "B")).with_ovcs()
    assert table.ovcs[1] == (0, 1)
    table.ovcs[1] = (0, 1.0)
    with pytest.raises(ValidationError, match="code mismatch"):
        assert_table_valid(table)
