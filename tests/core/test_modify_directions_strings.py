"""Order modification with descending directions and string columns —
the paper's 'each letter can be a column, a list, or a string' claim
exercised through the whole pipeline."""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import Strategy, analyze_order_modification
from repro.core.modify import modify_sort_order
from repro.model import Schema, SortColumn, SortSpec, Table
from repro.ovc.derive import derive_ovcs, verify_ovcs
from repro.ovc.stats import ComparisonStats

SCHEMA = Schema.of("A", "B", "C")

int_rows = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    max_size=50,
)
str_rows = st.lists(
    st.tuples(
        st.sampled_from(["ant", "bee", "cat"]),
        st.sampled_from(["x", "yy", "zzz", ""]),
        st.integers(0, 4),
    ),
    max_size=50,
)

DIRECTION_SETS = [
    (True, True, True),
    (False, True, True),
    (True, False, True),
    (True, True, False),
    (False, False, False),
]


def build(rows, directions) -> Table:
    spec = SortSpec(
        SortColumn(name, asc) for name, asc in zip(("A", "B", "C"), directions)
    )
    rows = sorted(rows, key=spec.key_for(SCHEMA))
    table = Table(SCHEMA, rows, spec)
    table = replace(table, ovcs=derive_ovcs(rows, (0, 1, 2), directions))
    return table


@given(int_rows, st.sampled_from(DIRECTION_SETS))
@settings(max_examples=60, deadline=None)
def test_case5_with_directions(rows, directions):
    """A,B,C -> A,C,B where each column keeps its direction."""
    table = build(rows, directions)
    out_spec = SortSpec(
        [
            SortColumn("A", directions[0]),
            SortColumn("C", directions[2]),
            SortColumn("B", directions[1]),
        ]
    )
    plan = analyze_order_modification(table.sort_spec, out_spec)
    assert plan.strategy is Strategy.COMBINED
    result = modify_sort_order(table, out_spec, method="combined")
    expected = sorted(table.rows, key=out_spec.key_for(SCHEMA))
    assert list(result.rows) == expected
    assert verify_ovcs(
        result.rows,
        result.ovcs,
        out_spec.positions(SCHEMA),
        out_spec.directions,
    )


@given(str_rows, st.sampled_from(DIRECTION_SETS))
@settings(max_examples=60, deadline=None)
def test_strings_with_directions(rows, directions):
    table = build(rows, directions)
    out_spec = SortSpec(
        [
            SortColumn("A", directions[0]),
            SortColumn("C", directions[2]),
            SortColumn("B", directions[1]),
        ]
    )
    result = modify_sort_order(table, out_spec)
    expected = sorted(table.rows, key=out_spec.key_for(SCHEMA))
    assert list(result.rows) == expected
    assert verify_ovcs(
        result.rows,
        result.ovcs,
        out_spec.positions(SCHEMA),
        out_spec.directions,
    )


@given(str_rows)
@settings(max_examples=40, deadline=None)
def test_string_case3_zero_string_comparisons(rows):
    """Rotating a string-keyed order never touches the strings when the
    merge keys are single columns."""
    table = build(rows, (True, True, True))
    stats = ComparisonStats()
    out_spec = SortSpec.of("B", "A", "C")
    result = modify_sort_order(table, out_spec, method="merge_runs", stats=stats)
    expected = sorted(table.rows, key=lambda r: (r[1], r[0], r[2]))
    assert list(result.rows) == expected
    assert stats.column_comparisons == 0


def test_direction_flip_on_same_columns_uses_backward_scan():
    rows = sorted(
        [(a, b, 0) for a in range(3) for b in range(3)],
        key=lambda r: (-r[0], -r[1]),
    )
    spec_in = SortSpec.of("A DESC", "B DESC", "C DESC")
    table = Table(SCHEMA, rows, spec_in)
    table = replace(table, ovcs=derive_ovcs(rows, (0, 1, 2), (False, False, False)))
    stats = ComparisonStats()
    result = modify_sort_order(table, SortSpec.of("A", "B", "C"), stats=stats)
    assert list(result.rows) == sorted(rows)
    # A pure backward scan: no comparisons at all.
    assert stats.row_comparisons == 0
    assert stats.column_comparisons == 0
