"""Property-based tests: every order-modification strategy must agree
with Python's stable sort and produce codes identical to fresh
derivation, on arbitrary inputs."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import Strategy, analyze_order_modification
from repro.core.modify import modify_sort_order
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs, verify_ovcs
from repro.ovc.stats import ComparisonStats

SCHEMA4 = Schema.of("A", "B", "C", "D")

# Desired orders covering every Table 1 case plus fallbacks.
ORDERS = [
    ("A", "B", "C", "D"),  # case 0 (identity)
    ("A", "B"),  # case 0 (prefix)
    ("A",),  # case 0
    ("B", "C", "D", "A"),  # merge runs, infix A retained
    ("B", "C"),  # case 2-ish: infix dropped
    ("B", "A"),  # hmm: B then A -> X=(A), M=(B), T=... retained
    ("A", "C", "B", "D"),  # case 7
    ("A", "C", "B"),  # case 5
    ("A", "C", "D"),  # case 6
    ("A", "C"),  # case 4
    ("A", "D", "B", "C"),  # X=(B,C), M=(D)
    ("A", "D", "C", "B"),  # no clean decomposition -> segment sort
    ("D", "C", "B", "A"),  # full sort territory
    ("C", "A", "B"),  # X=(A,B), M=(C) retained
    ("A", "B", "D", "C"),  # X=(C), M=(D) within prefix A,B
]

METHODS = ["auto", "segment_sort", "merge_runs", "combined", "full_sort"]


def sorted_table(rows: list[tuple]) -> Table:
    rows = sorted(rows)
    table = Table(SCHEMA4, rows, SortSpec.of("A", "B", "C", "D"))
    table = replace(table, ovcs=derive_ovcs(rows, (0, 1, 2, 3)))
    return table


row_strategy = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)
rows_strategy = st.lists(row_strategy, min_size=0, max_size=60)


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, order=st.sampled_from(ORDERS))
def test_auto_matches_ground_truth_with_codes(rows, order):
    table = sorted_table(rows)
    spec = SortSpec(order)
    result = modify_sort_order(table, spec)
    expected = sorted(table.rows, key=spec.key_for(SCHEMA4))
    assert list(result.rows) == expected
    positions = spec.positions(SCHEMA4)
    assert verify_ovcs(result.rows, result.ovcs, positions)


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy, order=st.sampled_from(ORDERS))
def test_auto_matches_ground_truth_without_codes(rows, order):
    table = sorted_table(rows)
    spec = SortSpec(order)
    result = modify_sort_order(table, spec, use_ovc=False)
    expected = sorted(table.rows, key=spec.key_for(SCHEMA4))
    assert list(result.rows) == expected
    assert result.ovcs is None


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy, order=st.sampled_from(ORDERS), data=st.data())
def test_forced_methods_agree(rows, order, data):
    table = sorted_table(rows)
    spec = SortSpec(order)
    plan = analyze_order_modification(table.sort_spec, spec)
    applicable = ["auto", "full_sort"]
    if plan.prefix_len > 0:
        applicable.append("segment_sort")
    if plan.merge_len > 0:
        applicable.append("merge_runs")
        if plan.prefix_len > 0:
            applicable.append("combined")
    method = data.draw(st.sampled_from(applicable))
    result = modify_sort_order(table, spec, method=method)
    expected = sorted(table.rows, key=spec.key_for(SCHEMA4))
    assert list(result.rows) == expected
    assert verify_ovcs(result.rows, result.ovcs, spec.positions(SCHEMA4))


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy)
def test_stability_case3(rows):
    """Case 3 (A,B,C,D -> B,C,D,A retains the infix): rows equal on the
    merge keys must keep their input (infix) order — which here equals
    a full stable sort because A breaks all remaining ties."""
    table = sorted_table(rows)
    spec = SortSpec.of("B", "C", "D", "A")
    result = modify_sort_order(table, spec, method="merge_runs")
    # Stable reference: sorted() is stable over the B,C,D key.
    expected = sorted(table.rows, key=lambda r: (r[1], r[2], r[3]))
    assert list(result.rows) == expected


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy)
def test_stability_dropped_infix(rows):
    """Case 2 (infix dropped): output order among rows with equal new
    keys must follow the input order (stable merge by run index)."""
    table = sorted_table(rows)
    spec = SortSpec.of("B", "C")
    result = modify_sort_order(table, spec, method="merge_runs")
    expected = sorted(table.rows, key=lambda r: (r[1], r[2]))
    assert list(result.rows) == expected


@settings(max_examples=30, deadline=None)
@given(rows=rows_strategy)
def test_infix_columns_never_compared_case5(rows):
    """Case 5: column comparisons may touch only the merge keys, and
    only when codes tie; prefix and infix columns are never compared.
    With single-column merge keys, codes capture everything except
    resumes past the merge column — bounded by the merge-key width."""
    table = sorted_table(rows)
    stats = ComparisonStats()
    modify_sort_order(table, SortSpec.of("A", "C", "B"), method="combined", stats=stats)
    # |M| = 1: a tie on the merge column resolves via derived codes, so
    # the only column comparisons would come from multi-column resumes.
    assert stats.column_comparisons == 0


@settings(max_examples=30, deadline=None)
@given(rows=st.lists(row_strategy, min_size=1, max_size=60))
def test_noop_projection(rows):
    table = sorted_table(rows)
    stats = ComparisonStats()
    result = modify_sort_order(table, SortSpec.of("A", "B"), stats=stats)
    assert result.rows == table.rows
    assert verify_ovcs(result.rows, result.ovcs, (0, 1))
    assert stats.column_comparisons == 0
    assert stats.row_comparisons == 0


def test_unsorted_input_rejected_on_derive():
    rows = [(2, 0, 0, 0), (1, 0, 0, 0)]
    table = Table(SCHEMA4, rows, SortSpec.of("A", "B", "C", "D"))
    with pytest.raises(ValueError):
        table.with_ovcs()


def test_missing_sort_spec_rejected():
    table = Table(SCHEMA4, [(1, 2, 3, 4)])
    with pytest.raises(ValueError):
        modify_sort_order(table, SortSpec.of("A",))
