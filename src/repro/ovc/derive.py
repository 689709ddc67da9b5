"""Deriving offset-value codes for an already-sorted table.

Given rows in sort order, each row's code is computed against its
predecessor: the offset is the length of the shared key prefix and the
value is the row's first differing key column (Figure 1 / Figure 5 of
the paper).  The first row is coded as ``(0, first key column)`` — as
if compared against an imaginary lowest row that differs in column 0.

Derivation is exactly the ``x`` part of the paper's comparison bound:
the total number of ``==`` column comparisons performed here equals the
compression opportunity by prefix truncation.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..model import Table, normalize_value
from .stats import ComparisonStats


def derive_ovcs(
    rows: Sequence[tuple],
    key_positions: Sequence[int],
    directions: Sequence[bool] | None = None,
    stats: ComparisonStats | None = None,
) -> list[tuple]:
    """Paper-form ``(offset, value)`` codes for sorted ``rows``.

    ``key_positions`` are the physical column positions of the sort key,
    in key order.  ``directions`` gives per-key-column ascending flags
    (all ascending when omitted); values of descending columns are
    normalized so that the stored code values order ascending.

    Raises ``ValueError`` if the rows are not actually sorted.
    """
    arity = len(key_positions)
    if directions is None:
        directions = (True,) * arity
    if len(directions) != arity:
        raise ValueError("directions length must match key arity")
    all_ascending = all(directions)

    ovcs: list[tuple] = []
    if not rows:
        return ovcs

    def key_value(row: tuple, k: int) -> Any:
        v = row[key_positions[k]]
        if all_ascending:
            return v
        return normalize_value(v, directions[k])

    first = rows[0]
    ovcs.append((0, key_value(first, 0)))
    prev = first
    for row in rows[1:]:
        offset = 0
        while offset < arity:
            if stats is not None:
                stats.column_comparisons += 1
            a = key_value(prev, offset)
            b = key_value(row, offset)
            if a != b:
                if b < a:
                    raise ValueError(
                        f"rows not sorted: {prev!r} precedes {row!r} "
                        f"but differs at key column {offset}"
                    )
                break
            offset += 1
        if offset == arity:
            ovcs.append((arity, 0))
        else:
            ovcs.append((offset, key_value(row, offset)))
        prev = row
    return ovcs


def derive_table_ovcs(
    table: Table, stats: ComparisonStats | None = None
) -> list[tuple]:
    """Derive codes for a :class:`~repro.model.Table` with a sort spec."""
    if table.sort_spec is None:
        raise ValueError("table has no sort spec; cannot derive codes")
    positions = table.sort_spec.positions(table.schema)
    return derive_ovcs(table.rows, positions, table.sort_spec.directions, stats)


def verify_ovcs(
    rows: Sequence[tuple],
    ovcs: Sequence[tuple],
    key_positions: Sequence[int],
    directions: Sequence[bool] | None = None,
) -> bool:
    """True iff ``ovcs`` equal freshly derived codes for ``rows``.

    Used by tests to confirm that code *adjustment* (the paper's novel
    arithmetic) produces exactly what full derivation would.
    """
    expected = derive_ovcs(rows, key_positions, directions)
    if len(expected) != len(ovcs):
        return False
    return all(tuple(a) == tuple(b) for a, b in zip(expected, ovcs))


def project_ovc(ovc: tuple, new_arity: int) -> tuple:
    """One code for sort key ``K`` as a code for a prefix of ``K``.

    Table 1 case 0 (e.g. ``A,B -> A``): data sorted on the longer key is
    already sorted on the prefix, and the codes translate without any
    column comparison — a row differing only beyond the prefix becomes
    an exact duplicate under the shorter key.
    """
    return (new_arity, 0) if ovc[0] >= new_arity else ovc


def project_ovcs(
    ovcs: Sequence[tuple], new_arity: int
) -> list[tuple]:
    """:func:`project_ovc` over a whole code list."""
    return [project_ovc(ovc, new_arity) for ovc in ovcs]


def segment_boundaries(
    ovcs: Sequence[tuple], prefix_len: int
) -> list[int]:
    """Indices of segment-first rows: offsets below ``prefix_len``.

    This is the paper's comparison-free segment detection — only the
    cached codes are inspected, never the column values.
    """
    return [i for i, (offset, _value) in enumerate(ovcs) if offset < prefix_len]

