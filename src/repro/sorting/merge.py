"""K-way merging of sorted runs, with or without offset-value codes.

A *run* here is a pair ``(rows, ovcs)``: rows in sort order plus
paper-form ``(offset, value)`` codes where each row is coded against
its run predecessor and the run's first row against a base common to
all runs (the convention produced by :mod:`repro.ovc.derive` and by run
generation).  Merging with codes re-uses all of that cached comparison
effort; merging without codes is the instrumented baseline.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..model import normalize_value
from ..ovc.codes import code_to_ovc, ovc_to_code
from ..ovc.compare import (
    form_code,
    make_ovc_entry_comparator,
    make_plain_entry_comparator,
)
from ..ovc.stats import ComparisonStats
from .tournament import Entry, TreeOfLosers


def _key_projector(key_positions: Sequence[int], directions: Sequence[bool] | None):
    """Build a row -> normalized key tuple projector."""
    positions = tuple(key_positions)
    if directions is None or all(directions):
        return lambda row: tuple(row[p] for p in positions)
    pairs = tuple(zip(positions, directions))
    return lambda row: tuple(normalize_value(row[p], asc) for p, asc in pairs)


def _run_entries(
    rows: Sequence[tuple],
    ovcs: Sequence[tuple] | None,
    run: int,
    arity: int,
    project,
) -> Iterator[Entry]:
    if ovcs is None:
        for row in rows:
            yield Entry(project(row), None, row, run)
    else:
        for row, ovc in zip(rows, ovcs):
            yield Entry(project(row), ovc_to_code(ovc, arity), row, run)


def kway_merge(
    runs: Sequence[tuple],
    key_positions: Sequence[int],
    stats: ComparisonStats,
    directions: Sequence[bool] | None = None,
    use_ovc: bool = True,
) -> tuple[list[tuple], list[tuple] | None]:
    """Merge sorted runs; returns ``(rows, ovcs)``.

    ``runs`` is a sequence of ``(rows, ovcs)`` pairs; ``ovcs`` entries
    may be None when merging without codes (then ``use_ovc`` must be
    False).  With codes, the output codes come straight from the
    tournament tree — each popped winner's code is relative to the
    previous winner, which is exactly the output predecessor.
    """
    arity = len(key_positions)
    project = _key_projector(key_positions, directions)
    if use_ovc:
        compare = make_ovc_entry_comparator(arity, stats)
    else:
        compare = make_plain_entry_comparator(arity, stats)

    inputs = [
        _run_entries(rows, ovcs if use_ovc else None, i, arity, project)
        for i, (rows, ovcs) in enumerate(runs)
    ]
    tree = TreeOfLosers(inputs, compare)

    out_rows: list[tuple] = []
    out_ovcs: list[tuple] | None = [] if use_ovc else None
    prev_keys: tuple | None = None
    for entry in tree:
        out_rows.append(entry.row)
        stats.rows_moved += 1
        if use_ovc:
            if prev_keys is None:
                # The overall first row is coded against the imaginary
                # lowest row: offset 0, value of the first key column.
                out_ovcs.append((0, entry.keys[0]))
            elif entry.code is None:
                # A fresh entry that never lost a match (possible only
                # when inputs supplied code-less entries); form its
                # output code against the previous output row.
                _rel, code = form_code(entry.keys, prev_keys, arity, stats)
                out_ovcs.append(code_to_ovc(code, arity))
            else:
                out_ovcs.append(code_to_ovc(entry.code, arity))
            prev_keys = entry.keys
    return out_rows, out_ovcs

