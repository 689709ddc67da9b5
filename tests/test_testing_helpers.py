"""Tests for the validation helpers in repro.testing."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, replace

import pytest

from repro.core.modify import modify_sort_order
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.ovc.stats import ComparisonStats
from repro.testing import (
    ValidationError,
    assert_sorted_on,
    assert_stable_sort_of,
    assert_table_valid,
    comparison_budget,
)
from repro.workloads.generators import random_table

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
    with pytest.raises(TypeError):
        table.ovcs[1] = (0, 1)
    forged = replace(table, ovcs=[table.ovcs[0], (0, 1)])
    with pytest.raises(ValidationError, match="code mismatch"):
        assert_table_valid(forged)

    bad_order = Table(SCHEMA, [(2, 0), (1, 0)], SortSpec.of("A"))
    with pytest.raises(ValidationError):
        assert_table_valid(bad_order)

    no_spec = Table(SCHEMA, [(1, 1)])
    with pytest.raises(ValidationError, match="no sort order"):
        assert_table_valid(no_spec)

    short = Table(SCHEMA, [(1, 1), (1, 2)], SortSpec.of("A"))
    with pytest.raises(FrozenInstanceError):
        short.ovcs = ((0, 1),)
    # Bypass the constructor check deliberately to test the validator.
    object.__setattr__(short, "ovcs", ((0, 1),))
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
    forged = replace(table, ovcs=[table.ovcs[0], (0, 1.0)])
    with pytest.raises(ValidationError, match="code mismatch"):
        assert_table_valid(forged)


def test_assert_stable_sort_of_catches_a_swap_of_tied_rows():
    """Two rows tied on the key but apart in another column, swapped:
    still sorted on the key, yet not the stable sort."""
    source = [(1, 9), (0, 5), (1, 3)]
    table = Table(SCHEMA, [(0, 5), (1, 9), (1, 3)], SortSpec.of("A"))
    assert_stable_sort_of(source, table)
    table = replace(table, rows=[table.rows[0], table.rows[2], table.rows[1]])
    assert_sorted_on(table.rows, table.sort_spec, SCHEMA)
    with pytest.raises(ValidationError, match=r"row 1 is \(1, 3\)"):
        assert_stable_sort_of(source, table)
    extra = Table(SCHEMA, [(0, 5), (1, 9), (1, 3)], SortSpec.of("A"))
    with pytest.raises(ValidationError, match=r"row 2 is \(1, 3\).* has None"):
        assert_stable_sort_of(source[:2], extra)


# Few values per key column, so ties are common; D is in no key.
WIDE = Schema.of("A", "B", "C", "D")


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize(
    "target",
    [
        "A,C,B",  # forward: keep the A prefix, re-sort segments
        "B,A",  # forward: a merge of A's segments
        "A DESC",  # backward: the input read back to front
        "A DESC,C",  # backward prefix, then segments re-sorted
    ],
)
def test_modify_sort_order_is_the_stable_sort_on_both_engines(engine, target):
    source = random_table(WIDE, 300, domains=[4, 3, 5, 50], seed=7)
    spec = SortSpec.of("A", "B")
    table = Table(
        WIDE, sorted(source.rows, key=spec.key_for(WIDE)), spec
    ).with_ovcs()
    out = modify_sort_order(
        table, SortSpec.of(*target.split(",")),
        config=ExecutionConfig(engine=engine),
    )
    assert_stable_sort_of(table.rows, out)
    assert_table_valid(out)
