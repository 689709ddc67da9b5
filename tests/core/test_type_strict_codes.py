"""Every code's value is its own row's, type for type.

``1``, ``1.0`` and ``True`` compare and hash equal, so a code value
copied from another row that is equal under the key passes a plain
comparison.  The oracle (:func:`repro.testing.assert_table_valid`)
compares codes as ``(offset, type(value), value)``; these cases put
such values where a path might copy a code from another row: the
segment head (the saved code of the segment's first *input* row) and
a retained infix column (codes derived from saved run-head codes),
and the head of a tie group that a backward plan restores to input
order.
"""

from __future__ import annotations

import random

import pytest

from repro.core.modify import modify_sort_order
from repro.engine.scans import TableScan
from repro.engine.sort_op import Sort
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs
from repro.testing import assert_table_valid

METHODS = ["auto", "segment_sort", "merge_runs", "combined", "full_sort"]
ENGINES = ["fast", "reference"]


def _coded(schema: Schema, rows, spec: SortSpec) -> Table:
    rows = sorted(rows, key=spec.key_for(schema))
    return Table(
        schema, rows, spec,
        derive_ovcs(rows, spec.positions(schema), spec.directions),
    )


def _probe() -> tuple[Table, SortSpec]:
    """Row 1 of the output is the ``1.0`` row; the segment's first input
    row is the ``1`` row."""
    schema = Schema.of("A", "B", "C")
    rows = [(1, 5, 3), (1.0, 6, 1), (True, 7, 2), (2, 0, 1), (0, 0, 0)]
    return _coded(schema, rows, SortSpec.of("A", "B")), SortSpec.of("A", "C")


def _mixed_infix(in_cols, out_cols, seed: int = 0) -> tuple[Table, SortSpec]:
    """Table 1 cases 5 and 7: infix column ``B`` holds ``1`` as ``1``,
    ``1.0`` or ``True``."""
    rng = random.Random(seed)
    schema = Schema.of("A", "B", "C", "D")

    def b():
        v = rng.randrange(3)
        return rng.choice((1, 1.0, True)) if v == 1 else v

    rows = [
        (rng.randrange(3), b(), rng.randrange(3), rng.randrange(3))
        for _ in range(300)
    ]
    return _coded(schema, rows, SortSpec(in_cols)), SortSpec(out_cols)


def _full_flip() -> tuple[Table, SortSpec]:
    """A backward plan: each tie group of ``A`` comes back in input
    order, and its head's code must carry the head's own ``2`` or
    ``1``, not the ``2.0`` or ``1.0`` of the group's last row."""
    schema = Schema.of("A", "B")
    rows = [(0, "o"), (1, "x"), (True, "y"), (1.0, "z"), (2, "a"), (2.0, "b")]
    return _coded(schema, rows, SortSpec.of("A")), SortSpec.of("A DESC")


CASES = {
    "full-flip": _full_flip,
    "segment-head": _probe,
    "case5": lambda: _mixed_infix(("A", "B", "C"), ("A", "C", "B")),
    "case7": lambda: _mixed_infix(("A", "B", "C", "D"), ("A", "C", "B", "D")),
}


def _typed(ovcs) -> list:
    return [(offset, type(value), value) for offset, value in ovcs]


def _check(table: Table, spec: SortSpec, got: Table) -> None:
    """Stable ``sorted()`` plus fresh codes, type for type."""
    rows = sorted(table.rows, key=spec.key_for(table.schema))
    assert list(got.rows) == rows
    want = derive_ovcs(rows, spec.positions(table.schema), spec.directions)
    assert _typed(got.ovcs) == _typed(want)
    assert_table_valid(got)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("engine", ENGINES)
def test_modify_codes_are_type_strict(case, method, engine):
    table, spec = CASES[case]()
    config = ExecutionConfig(engine=engine)
    try:
        got = modify_sort_order(table, spec, method=method, config=config)
    except ValueError:
        pytest.skip(f"{method} does not apply to {case}")
    _check(table, spec, got)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("engine", ENGINES)
def test_bounded_sort_codes_are_type_strict(case, engine):
    """Forward plans in two-row loads: every segment of more than two
    rows goes through the spill path.  ``full-flip``'s backward plan
    is the bounded ``Sort``'s in-memory one."""
    table, spec = CASES[case]()
    op = Sort(
        TableScan(table), spec, memory_capacity=2,
        config=ExecutionConfig(engine=engine),
    )
    _check(table, spec, op.to_table())


def _bool_int_keys(seed: int = 0) -> list[tuple]:
    """Key ``A`` mixes bools with the ints they equal; ``B`` is a row id."""
    rng = random.Random(seed)
    values = (-1, 0, 1, 2, False, True)
    return [(rng.choice(values), i) for i in range(200)]


@pytest.mark.parametrize("rows", [
    [(0, 2), (True, 1), (1, 0)],
    [(1, 0), (True, 1), (0, 2)],
    _bool_int_keys(),
], ids=["true-after-zero", "true-beside-one", "random"])
@pytest.mark.parametrize("engine", ENGINES)
def test_a_descending_bool_sorts_as_the_int_it_equals(rows, engine):
    """``True == 1``, so on ``A DESC`` a ``True`` ties with ``1`` and
    sorts before every ``0``; its code value is the int ``-1``."""
    schema, spec = Schema.of("A", "B"), SortSpec.of("A DESC")
    config = ExecutionConfig(engine=engine)
    by_b = sorted(rows, key=lambda r: r[1])
    ordered = Table(schema, by_b, SortSpec.of("B"), derive_ovcs(by_b, (1,)))
    for source, got in (
        (rows, Sort(TableScan(Table(schema, rows)), spec, config=config)
            .to_table()),
        (by_b, modify_sort_order(ordered, spec, config=config)),
    ):
        want = sorted(source, key=lambda r: -r[0])
        codes = derive_ovcs(want, spec.positions(schema), spec.directions)
        assert list(got.rows) == want
        assert _typed(got.ovcs) == _typed(codes)
        assert_table_valid(got)
