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

from ..model import SortSpec, Table, normalize_value
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
    stats = stats if stats is not None else ComparisonStats()

    spec = table.sort_spec
    new_spec = reversed_spec(spec)
    positions = spec.positions(table.schema)
    new_directions = new_spec.directions
    arity = spec.arity
    n = len(table.rows)

    new_rows = table.rows[::-1]
    new_ovcs: list[tuple] = []
    for j, row in enumerate(new_rows):
        if j == 0:
            offset = 0
        else:
            # The difference between reversed rows j-1 and j is the
            # difference between original rows i+1 and i — recorded in
            # the original code of row i+1 = new row j-1.
            i_plus_1 = n - j  # original index of new row j-1
            offset = table.ovcs[i_plus_1][0]
        if offset >= arity:
            new_ovcs.append((arity, 0))
            continue
        value = row[positions[offset]]
        stats.key_extractions += 1
        new_ovcs.append((offset, normalize_value(value, new_directions[offset])))
    return Table(table.schema, new_rows, new_spec, new_ovcs)
