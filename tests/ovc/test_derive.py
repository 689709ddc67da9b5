"""Tests for code derivation, projection, and boundary detection."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.classify import code_offsets, head_positions
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import (
    derive_ovcs,
    derive_table_ovcs,
    project_ovcs,
    verify_ovcs,
)
from repro.ovc.stats import ComparisonStats

rows_st = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    max_size=50,
)


@given(rows_st)
def test_derivation_is_self_consistent(rows):
    rows = sorted(rows)
    ovcs = derive_ovcs(rows, (0, 1, 2))
    assert verify_ovcs(rows, ovcs, (0, 1, 2))
    assert len(ovcs) == len(rows)


@given(rows_st)
def test_offsets_mark_shared_prefixes(rows):
    rows = sorted(rows)
    ovcs = derive_ovcs(rows, (0, 1, 2))
    for i in range(1, len(rows)):
        offset, value = ovcs[i]
        assert rows[i][:offset] == rows[i - 1][:offset]
        if offset < 3:
            assert rows[i][offset] == value
            assert rows[i][offset] != rows[i - 1][offset]


def test_first_row_convention():
    ovcs = derive_ovcs([(7, 1, 2)], (0, 1, 2))
    assert ovcs == [(0, 7)]


def test_empty_input():
    assert derive_ovcs([], (0, 1)) == []


def test_unsorted_input_raises():
    with pytest.raises(ValueError, match="not sorted"):
        derive_ovcs([(2, 0), (1, 0)], (0, 1))


def test_descending_direction_normalizes_values():
    rows = [(5, 1), (3, 2), (3, 9), (1, 0)]
    ovcs = derive_ovcs(rows, (0, 1), directions=(False, True))
    # Descending first column: values stored negated so codes order
    # ascending; second column ascending within equal first.
    assert ovcs == [(0, -5), (0, -3), (1, 9), (0, -1)]


def test_derivation_counts_column_comparisons():
    rows = [(1, 1), (1, 2), (2, 0)]
    stats = ComparisonStats()
    derive_ovcs(rows, (0, 1), stats=stats)
    # Row 2: compare col0 (equal) + col1 (differs) = 2; row 3: col0 = 1.
    assert stats.column_comparisons == 3


@given(rows_st, st.integers(1, 3))
def test_projection_matches_fresh_derivation(rows, new_arity):
    """Projecting codes onto a key prefix equals deriving them anew —
    Table 1 case 0 with zero comparisons."""
    rows = sorted(rows)
    full = derive_ovcs(rows, (0, 1, 2))
    projected = project_ovcs(full, new_arity)
    fresh = derive_ovcs(rows, (0, 1, 2)[:new_arity])
    assert projected == fresh


@given(rows_st, st.integers(1, 3))
def test_segment_boundaries_match_prefix_changes(rows, prefix_len):
    rows = sorted(rows)
    ovcs = derive_ovcs(rows, (0, 1, 2))
    got = head_positions(code_offsets(ovcs), prefix_len)
    expected = [
        i
        for i in range(len(rows))
        if i == 0 or rows[i][:prefix_len] != rows[i - 1][:prefix_len]
    ]
    assert got == expected


def test_table_derivation_requires_sort_spec():
    table = Table(Schema.of("A"), [(1,)])
    with pytest.raises(ValueError):
        derive_table_ovcs(table)


def test_string_columns_supported():
    rows = [("alpha", "x"), ("alpha", "y"), ("beta", "a")]
    ovcs = derive_ovcs(rows, (0, 1))
    assert ovcs == [(0, "alpha"), (1, "y"), (0, "beta")]
