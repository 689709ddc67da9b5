"""Backward scans: reversing coded tables and planning through them."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import Strategy, analyze_order_modification
from repro.core.backward import reverse_table, reversed_spec
from repro.core.modify import modify_sort_order
from repro.engine.scans import TableScan
from repro.engine.sort_op import Sort
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs, verify_ovcs
from repro.ovc.stats import ComparisonStats

# D is a payload in no key: it tells apart rows that tie on every key,
# so a result that is not stable shows.
SCHEMA = Schema.of("A", "B", "C", "D")

rows_st = st.lists(
    st.tuples(
        st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
        st.integers(0, 9),
    ),
    max_size=50,
)


def make_table(rows, spec: SortSpec) -> Table:
    rows = sorted(rows, key=spec.key_for(SCHEMA))
    table = Table(SCHEMA, rows, spec)
    table = replace(table, ovcs=derive_ovcs(
        rows, spec.positions(SCHEMA), spec.directions
    ))
    return table


def test_reversed_spec_flips_all_directions():
    spec = SortSpec.of("A", "B DESC", "C")
    assert reversed_spec(spec) == SortSpec.of("A DESC", "B", "C DESC")


@given(rows_st)
@settings(max_examples=60, deadline=None)
def test_reverse_table_codes_match_fresh_derivation(rows):
    table = make_table(rows, SortSpec.of("A", "B", "C"))
    stats = ComparisonStats()
    rev = reverse_table(table, stats)
    assert list(rev.rows) == list(reversed(table.rows))
    assert rev.sort_spec == SortSpec.of("A DESC", "B DESC", "C DESC")
    assert verify_ovcs(
        rev.rows, rev.ovcs, (0, 1, 2), (False, False, False)
    )
    assert stats.column_comparisons == 0


@given(rows_st)
@settings(max_examples=40, deadline=None)
def test_reverse_of_mixed_directions(rows):
    spec = SortSpec.of("A", "B DESC", "C")
    table = make_table(rows, spec)
    rev = reverse_table(table)
    assert rev.sort_spec == SortSpec.of("A DESC", "B", "C DESC")
    assert verify_ovcs(
        rev.rows,
        rev.ovcs,
        (0, 1, 2),
        rev.sort_spec.directions,
    )


def test_analysis_detects_backward_opportunity():
    plan = analyze_order_modification(
        SortSpec.of("A DESC", "B DESC"), SortSpec.of("B", "A")
    )
    assert plan.backward
    assert plan.strategy is Strategy.MERGE_RUNS
    assert plan.input_spec == SortSpec.of("A", "B")


def test_analysis_backward_noop_is_pure_reversal():
    plan = analyze_order_modification(
        SortSpec.of("A DESC"), SortSpec.of("A")
    )
    assert plan.backward
    assert plan.strategy is Strategy.NOOP


def test_forward_structure_preferred_over_backward():
    plan = analyze_order_modification(
        SortSpec.of("A", "B", "C"), SortSpec.of("A", "C", "B")
    )
    assert not plan.backward


@given(rows_st)
@settings(max_examples=40, deadline=None)
def test_modify_through_backward_scan(rows):
    """Existing (A DESC, B DESC, C DESC); desired (B, C, A): reverse,
    then merge pre-existing runs — never a full sort."""
    table = make_table(rows, SortSpec.of("A DESC", "B DESC", "C DESC"))
    spec = SortSpec.of("B", "C", "A")
    result = modify_sort_order(table, spec)
    expected = sorted(table.rows, key=lambda r: (r[1], r[2], r[0]))
    assert list(result.rows) == expected
    assert verify_ovcs(result.rows, result.ovcs, (1, 2, 0))
    assert list(result.ovcs) == derive_ovcs(result.rows, (1, 2, 0))


@given(rows_st)
@settings(max_examples=30, deadline=None)
def test_modify_backward_without_codes(rows):
    table = Table(
        SCHEMA,
        sorted(rows, key=SortSpec.of("A DESC", "B DESC", "C DESC").key_for(SCHEMA)),
        SortSpec.of("A DESC", "B DESC", "C DESC"),
    )
    spec = SortSpec.of("B", "A", "C")
    result = modify_sort_order(table, spec, use_ovc=False)
    expected = sorted(table.rows, key=lambda r: (r[1], r[0], r[2]))
    assert list(result.rows) == expected


def test_pure_reversal_costs_only_extractions():
    rows = [(i, i % 3, 0) for i in range(100)]
    table = make_table(rows, SortSpec.of("A", "B", "C"))
    stats = ComparisonStats()
    result = modify_sort_order(table, SortSpec.of("A DESC"), stats=stats)
    assert list(result.rows) == list(reversed(table.rows))
    assert stats.column_comparisons == 0
    assert stats.row_comparisons == 0


def test_pure_reversal_without_codes_counts_tie_regrouping():
    """Without codes, finding the tie groups costs one comparison per
    adjacent output pair, and nothing else is compared."""
    rows = [(i // 2, 0, 0, i) for i in range(100)]
    table = Table(SCHEMA, rows, SortSpec.of("A", "B", "C"))
    stats = ComparisonStats()
    result = modify_sort_order(
        table, SortSpec.of("A DESC"), use_ovc=False, stats=stats
    )
    assert list(result.rows) == sorted(rows, key=lambda r: -r[0])
    assert stats.row_comparisons == len(rows) - 1


TIE_ROWS = [(1, 0, "x"), (1, 0, "y"), (2, 0, "z")]


def _tie_table(ordered: bool) -> Table:
    schema = Schema.of("A", "B", "C")
    if not ordered:
        return Table(schema, list(TIE_ROWS))
    return Table(
        schema, list(TIE_ROWS), SortSpec.of("A", "B"),
        derive_ovcs(TIE_ROWS, (0, 1)),
    )


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize(
    "path, ordered",
    [
        ("modify", True),
        ("sort", True),
        ("sort", False),
        ("sort-bounded", True),
    ],
)
def test_backward_plan_keeps_ties_in_input_order(path, ordered, engine):
    """(A, B) read backwards serves A DESC; the two rows tied on A must
    come out in input order, as the stable oracle has them."""
    table = _tie_table(ordered)
    spec = SortSpec.of("A DESC")
    cfg = ExecutionConfig(engine=engine)
    if path == "modify":
        result = modify_sort_order(table, spec, config=cfg)
    else:
        capacity = 2 if path == "sort-bounded" else None
        result = Sort(
            TableScan(table), spec, memory_capacity=capacity, config=cfg
        ).to_table()
    assert list(result.rows) == [(2, 0, "z"), (1, 0, "x"), (1, 0, "y")]
    assert list(result.rows) == sorted(TIE_ROWS, key=spec.key_for(table.schema))
    assert list(result.ovcs) == derive_ovcs(result.rows, (0,), (False,))
