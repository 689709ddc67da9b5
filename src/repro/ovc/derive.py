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

from operator import itemgetter
from typing import Any, Iterable, Sequence

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


def codes_from_offsets(
    rows: Iterable[tuple],
    offsets: Iterable[int],
    positions: Sequence[int],
    directions: Sequence[bool],
    stats: ComparisonStats | None = None,
) -> list[tuple]:
    """Paper-form codes for ``rows`` whose offsets are already known
    (to a column store's runs, a row store's prefixes, a backward scan):
    a code's value is the row's own key value at its offset, normalized
    for that column's direction; an offset reaching the arity is the
    duplicate ``(arity, 0)``.  No comparisons; each non-duplicate code
    counts one ``key_extractions`` in ``stats``."""
    arity = len(positions)
    duplicate = (arity, 0)
    ovcs = [
        duplicate if offset >= arity
        else (offset, row[positions[offset]]) if directions[offset]
        else (offset, normalize_value(row[positions[offset]], False))
        for row, offset in zip(rows, offsets)
    ]
    if stats is not None:
        stats.key_extractions += len(ovcs) - ovcs.count(duplicate)
    return ovcs


def type_breaks(
    rows: Sequence[tuple], offsets: Sequence[int], positions: Sequence[int]
) -> dict[int, int]:
    """Rows that share key columns with their predecessor by value but
    not by type, each mapped to the first such column: ``1``, ``1.0``
    and ``True`` are equal values, so a code's offset runs past them,
    but a store that kept only the predecessor's value would hand back
    the wrong type.  A store keeps a row's own key values from
    ``min(offset, breaks[row])`` on.  One pass over each key column's
    types finds the columns that mix any; only those are walked row by
    row, comparing types by identity and no values."""
    breaks: dict[int, int] = {}
    for k, p in enumerate(positions):
        if len(set(map(type, map(itemgetter(p), rows)))) < 2:
            continue
        types = list(map(type, map(itemgetter(p), rows)))
        for i in range(1, len(types)):
            if types[i] is not types[i - 1] and offsets[i] > k:
                breaks.setdefault(i, k)
    return breaks


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
    """:func:`project_ovc` over a whole code list, with no call per row
    (a kept code is the input's own tuple: ``1``, ``1.0``, ``True``
    never merge)."""
    duplicate = (new_arity, 0)
    return [duplicate if ovc[0] >= new_arity else ovc for ovc in ovcs]
