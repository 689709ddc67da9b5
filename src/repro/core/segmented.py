"""Run-time executor: segmented sorting (Section 3.1, Figure 3).

The shared prefix partitions the input into segments; each segment is
sorted independently on the remaining desired columns, treating its
rows as unsorted.  Old codes contribute twice (hypothesis 2): segment
boundaries are detected from offsets alone, and every row enters the
segment sort with the code ``(|P|, value of the first post-prefix
desired column)`` — so comparisons inside the sort never touch the
prefix columns.

This is also Figure 11's "method 1": sort segments directly with a
tournament tree, disregarding pre-existing runs (each row is a run of
size one).
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..obs import METRICS, TRACER
from ..ovc.codes import code_to_ovc
from ..ovc.compare import (
    make_ovc_entry_comparator,
    make_plain_entry_comparator,
)
from ..ovc.stats import ComparisonStats
from ..sorting.tournament import Entry, TreeOfLosers


def sort_segment(
    rows: Sequence[tuple],
    ovcs: Sequence[tuple] | None,
    lo: int,
    hi: int,
    prefix_len: int,
    output_arity: int,
    out_project: Callable[[tuple], tuple],
    stats: ComparisonStats,
    out_rows: list[tuple],
    out_ovcs: list[tuple] | None,
    use_ovc: bool = True,
) -> None:
    """Sort rows ``[lo, hi)`` (one segment) on the desired order.

    With ``use_ovc`` every row enters coded ``(|P|, first post-prefix
    value)`` and the tournament maintains codes from there; the output
    rows land in ``out_rows`` with fresh codes in ``out_ovcs`` and the
    segment's first output row takes the saved segment-head offset,
    with its own value at that offset.

    Without codes, the baseline compares column values from the first
    post-prefix column on.
    """
    if hi <= lo:
        return
    if METRICS.enabled:
        METRICS.histogram("segment.rows").observe(hi - lo)
    with TRACER.span("segment.sort", rows=hi - lo, prefix_len=prefix_len):
        _sort_segment(
            rows, ovcs, lo, hi, prefix_len, output_arity, out_project,
            stats, out_rows, out_ovcs, use_ovc,
        )


def _sort_segment(
    rows, ovcs, lo, hi, prefix_len, output_arity, out_project,
    stats, out_rows, out_ovcs, use_ovc,
) -> None:
    p = prefix_len
    k_out = output_arity

    if p >= k_out:
        # The shared prefix covers the whole desired key: all rows of
        # the segment are duplicates under the new order; copy through.
        out_rows.extend(rows[lo:hi])
        if use_ovc:
            out_ovcs.append(ovcs[lo])
            out_ovcs.extend([(k_out, 0)] * (hi - lo - 1))
        return

    if use_ovc:
        if ovcs is None:
            raise ValueError("offset-value codes required when use_ovc is set")
        head_offset = ovcs[lo][0]
        entries = []
        for run, idx in enumerate(range(lo, hi)):
            row = rows[idx]
            okeys = out_project(row)
            stats.key_extractions += 1
            entries.append(Entry(okeys, (k_out - p, okeys[p]), row, run))
        compare = make_ovc_entry_comparator(k_out, stats)
        tree = TreeOfLosers([iter((e,)) for e in entries], compare)
        first_out = len(out_rows)
        for entry in tree:
            out_rows.append(entry.row)
            out_ovcs.append(code_to_ovc(entry.code, k_out))
            stats.rows_moved += 1
        if p > 0:
            # The head's value is equal to the first row's, not its own.
            first = out_project(out_rows[first_out])
            out_ovcs[first_out] = (head_offset, first[head_offset])
        # With p == 0 the first popped entry still carries its initial
        # code (0, first key value) — it never lost a match — which is
        # exactly the whole-output first-row convention.
        return

    entries = [
        Entry(out_project(rows[idx]), None, rows[idx], run)
        for run, idx in enumerate(range(lo, hi))
    ]
    compare = make_plain_entry_comparator(k_out, stats, start=p)
    tree = TreeOfLosers([iter((e,)) for e in entries], compare)
    for entry in tree:
        out_rows.append(entry.row)
        stats.rows_moved += 1
