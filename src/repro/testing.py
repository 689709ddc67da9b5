"""Validation helpers for users and tests.

Offset-value codes are caches: if they lie, every consumer silently
produces garbage — so this module gives downstream code cheap,
explicit ways to check invariants at trust boundaries:

* :func:`assert_table_valid` — the table is sorted as claimed and its
  codes equal fresh derivation, type for type;
* :func:`assert_sorted_on` — a row sequence satisfies a spec;
* :func:`assert_stable_sort_of` — the table's rows are exactly the
  stable sort of a source's rows on its declared order (rows tied on
  the key keep their source order);
* :func:`comparison_budget` — a context manager asserting an upper
  bound on column comparisons performed inside the block (regression
  guard for "this path must not compare columns").
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import zip_longest
from typing import Iterator, Sequence

from .model import SortSpec, Table
from .ovc.derive import derive_ovcs
from .ovc.stats import ComparisonStats


class ValidationError(AssertionError):
    """A table or stream violated a declared invariant."""


def assert_sorted_on(
    rows: Sequence[tuple], spec: SortSpec, schema
) -> None:
    """Raise :class:`ValidationError` unless ``rows`` satisfy ``spec``."""
    key = spec.key_for(schema)
    prev = None
    for i, row in enumerate(rows):
        k = key(row)
        if prev is not None and k < prev:
            raise ValidationError(
                f"rows not sorted on {spec}: row {i} {row!r} sorts before "
                f"its predecessor"
            )
        prev = k


def assert_stable_sort_of(source_rows: Sequence[tuple], table: Table) -> None:
    """Raise :class:`ValidationError` unless ``table.rows`` equal the
    stable ``sorted()`` of ``source_rows`` on ``table.sort_spec``,
    naming the first row that differs (``None`` past either end)."""
    if table.sort_spec is None:
        raise ValidationError("table declares no sort order")
    want = sorted(source_rows, key=table.sort_spec.key_for(table.schema))
    for i, (got, row) in enumerate(zip_longest(table.rows, want)):
        if got != row:
            raise ValidationError(
                f"not the stable sort on {table.sort_spec}: row {i} is "
                f"{got!r}, stable sorted() has {row!r}"
            )


def assert_table_valid(table: Table) -> None:
    """Full validation: declared order holds and codes are authentic,
    compared as ``(offset, type(value), value)`` (``1``, ``1.0`` and
    ``True`` are equal values, not equal codes)."""
    if table.sort_spec is None:
        raise ValidationError("table declares no sort order")
    assert_sorted_on(table.rows, table.sort_spec, table.schema)
    if table.ovcs is None:
        return
    if len(table.ovcs) != len(table.rows):
        raise ValidationError(
            f"{len(table.ovcs)} codes for {len(table.rows)} rows"
        )
    positions = table.sort_spec.positions(table.schema)
    fresh = derive_ovcs(table.rows, positions, table.sort_spec.directions)
    for i, (got, want) in enumerate(zip(table.ovcs, fresh)):
        if (*got, type(got[1])) != (*want, type(want[1])):
            raise ValidationError(
                f"code mismatch at row {i}: stored {got!r}, derived {want!r}"
            )


@contextmanager
def comparison_budget(
    stats: ComparisonStats,
    column_comparisons: int | None = None,
    row_comparisons: int | None = None,
) -> Iterator[ComparisonStats]:
    """Assert comparison counts inside the block stay within bounds.

    ::

        stats = ComparisonStats()
        with comparison_budget(stats, column_comparisons=0):
            modify_sort_order(table, spec, stats=stats)
    """
    before = stats.snapshot()
    yield stats
    spent = stats - before
    if (
        column_comparisons is not None
        and spent.column_comparisons > column_comparisons
    ):
        raise ValidationError(
            f"column comparison budget exceeded: "
            f"{spent.column_comparisons} > {column_comparisons}"
        )
    if row_comparisons is not None and spent.row_comparisons > row_comparisons:
        raise ValidationError(
            f"row comparison budget exceeded: "
            f"{spent.row_comparisons} > {row_comparisons}"
        )
