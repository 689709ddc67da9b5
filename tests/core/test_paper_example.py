"""Exact reproduction of the paper's worked example (Figures 5-9):
modifying the sort order A,B,C -> A,C,B with segmented sorting,
merging pre-existing runs, and offset-value code reuse."""

from __future__ import annotations

import pytest

from repro.core.analysis import Strategy, analyze_order_modification
from repro.core.classify import (
    code_offsets,
    count_below,
    head_positions,
    split_segments,
)
from repro.core.modify import modify_sort_order
from repro.model import SortSpec
from repro.ovc.stats import ComparisonStats

from ..conftest import paper_example_table


def test_figure5_input_codes():
    table = paper_example_table()
    assert table.ovcs == [
        (0, 1),
        (0, 2),
        (2, 3),
        (1, 2),
        (2, 2),
        (1, 3),
        (3, 0),
        (2, 5),
        (0, 3),
    ]


def test_plan_is_case5_combined():
    table = paper_example_table()
    plan = analyze_order_modification(table.sort_spec, SortSpec.of("A", "C", "B"))
    assert plan.strategy is Strategy.COMBINED
    assert plan.case_id == 5
    assert plan.prefix_len == 1
    assert plan.infix.names == ("B",)
    assert plan.merge_keys.names == ("C",)
    assert plan.tail.names == ()
    assert not plan.infix_dropped


def test_figure6_row_classification():
    """The classification column of Figure 6, derived from offsets only.

    A row's class is the first boundary its offset falls below:
    |P| (segment head), |P|+|X| (run head), |P|+|X|+|M| (other row);
    a row below none of them is a duplicate.
    """
    segment_head, run_head, merge_row, duplicate = range(4)
    table = paper_example_table()
    # Rows 2-8 (1-based) form the segment with A = 2.
    offsets = code_offsets(table.ovcs[1:8])
    levels = [set(head_positions(offsets, b)) for b in (1, 2, 3)]
    got = [
        next((k for k, heads in enumerate(levels) if i in heads), duplicate)
        for i in range(7)
    ]
    assert got == [
        segment_head,  # row 2
        merge_row,  # row 3 ("other row")
        run_head,  # row 4
        merge_row,  # row 5
        run_head,  # row 6
        duplicate,  # row 7
        merge_row,  # row 8
    ]


def test_segments_found_from_codes_alone():
    table = paper_example_table()
    assert list(split_segments(table.ovcs, 1)) == [(0, 1), (1, 8), (8, 9)]


def test_row_classes_located_from_one_pass_over_the_offsets():
    table = paper_example_table()
    offsets = code_offsets(table.ovcs)
    # |P|+|X|+|M| = 3: every row but the duplicate (Figure 6's row 7).
    heads = head_positions(offsets, 3)
    assert heads == [0, 1, 2, 3, 4, 5, 7, 8]
    assert count_below(offsets, 1) == 3  # segments
    assert count_below(offsets, 2) == 5  # runs
    assert list(split_segments(table.ovcs, 1, candidates=heads)) == [
        (0, 1), (1, 8), (8, 9),
    ]
    # A sort key too wide for byte-sized offsets takes the same calls.
    wide = [(0, "a"), (300, "b"), (2, "c"), (300, "d")]
    assert head_positions(code_offsets(wide), 3) == [0, 2]
    assert count_below(code_offsets(wide), 3) == 2


def test_figures8_and_9_merge_output():
    """The merged segment of Figure 8 with the final codes of Figure 9."""
    table = paper_example_table()
    stats = ComparisonStats()
    result = modify_sort_order(table, SortSpec.of("A", "C", "B"), stats=stats)

    # Output rows keep the stored column layout (A, B, C); the order is
    # the A,C,B order of Figure 8: old rows 1 | 2,4,5,3,6,7,8 | 9.
    assert result.rows == [
        (1, 1, 1),
        (2, 1, 1),
        (2, 2, 1),
        (2, 2, 2),
        (2, 1, 3),
        (2, 3, 4),
        (2, 3, 4),
        (2, 3, 5),
        (3, 1, 1),
    ]
    # Codes of Figure 9, bracketed by the neighbour segments' codes.
    assert result.ovcs == [
        (0, 1),
        (0, 2),
        (2, 2),
        (1, 2),
        (1, 3),
        (1, 4),
        (3, 0),
        (1, 5),
        (0, 3),
    ]


def test_no_infix_or_prefix_column_comparisons():
    """The example requires no column comparisons for A or B at all,
    and none for C either (C is a single column, fully captured by the
    entry codes)."""
    table = paper_example_table()
    stats = ComparisonStats()
    modify_sort_order(table, SortSpec.of("A", "C", "B"), stats=stats)
    assert stats.column_comparisons == 0


def test_case3_variant_single_segment():
    """Constant A turns the example into Table 1 case 3 (B,C -> C,B
    within one segment) as the paper notes."""
    table = paper_example_table()
    # Restrict to the A=2 segment and drop A from the key.
    plan = analyze_order_modification(SortSpec.of("B", "C"), SortSpec.of("C", "B"))
    assert plan.strategy is Strategy.MERGE_RUNS
    assert plan.case_id == 3


def test_output_codes_match_fresh_derivation():
    from repro.ovc.derive import verify_ovcs

    table = paper_example_table()
    result = modify_sort_order(table, SortSpec.of("A", "C", "B"))
    positions = result.sort_spec.positions(result.schema)
    assert verify_ovcs(result.rows, result.ovcs, positions)
