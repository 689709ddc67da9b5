"""Backward scans of sorted data (Section 3.5's generalization).

A table sorted on ``(A, B DESC)`` read *backwards* is sorted on
``(A DESC, B)`` — every direction flips.  Crucially, the offset-value
codes survive the reversal without any comparison: the code of row
``i`` in the reversed stream describes its difference from the old row
``i+1``, whose *offset* is exactly the old code of row ``i+1`` (shared
prefixes are symmetric); only the value must be re-extracted from the
row itself (and re-normalized for the flipped direction).

This turns, e.g., an existing order ``A DESC, B DESC`` into usable
structure for a desired order ``A, C, B`` — first reverse, then apply
the ordinary machinery.
"""

from __future__ import annotations

from itertools import chain

from ..model import SortSpec, Table
from ..ovc.derive import codes_from_offsets
from ..ovc.stats import ComparisonStats


def reversed_spec(spec: SortSpec) -> SortSpec:
    """The sort order of the same data read back to front."""
    return SortSpec(tuple(col.reversed() for col in spec.columns))


def reverse_table(table: Table, stats: ComparisonStats | None = None) -> Table:
    """Reverse a sorted, coded table — zero column comparisons.

    The result is sorted (and coded) on :func:`reversed_spec` of the
    input's order.  Each output code costs at most one key-column
    extraction; exact duplicates cost nothing.
    """
    if table.sort_spec is None:
        raise ValueError("backward scan requires a sorted table")
    table = table.with_ovcs()
    new_spec = reversed_spec(table.sort_spec)
    # Reversed row j differs from reversed row j - 1 exactly where the
    # old row n - j differs from the old row n - j - 1: at the old
    # offset of row n - j.  Row 0 is the new table head.
    offsets = table._codes().offsets
    new_rows = table.rows[::-1]
    new_ovcs = codes_from_offsets(
        new_rows,
        chain((0,), offsets[:0:-1]),
        new_spec.positions(table.schema),
        new_spec.directions,
        stats,
    )
    return Table(table.schema, new_rows, new_spec, new_ovcs)
