"""Column fields are remembered per table, and a table is a value.

The fast kernels keep each key column's surrogates on the table's row
record (``Table._facts().fields``), and beside them whether a code book
may serve the column (``Table._facts().books``).  A table cannot change
in place, so a record never goes stale.  Every test here takes a change
a stale field or book would get wrong, checks that making it in place
raises, makes it through ``dataclasses.replace`` instead, and checks
the new table's answers on both engines against the one oracle: stable
``sorted()`` plus freshly derived codes, compared type-strictly.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import FrozenInstanceError, replace

import pytest

from repro import (
    ExecutionConfig, Query, Schema, SortSpec, Table, modify_sort_order,
)
from repro.core.modify import _modify_sort_order
from repro.fastpath import packed
from repro.fastpath.packed import column_field
from repro.ovc.derive import derive_ovcs
from repro.testing import assert_stable_sort_of, assert_table_valid

SCHEMA = Schema.of("A", "B", "C")
BASE = SortSpec.of("A", "B", "C")
FAST = ExecutionConfig(engine="fast")
ENGINES = (FAST, ExecutionConfig(engine="reference"))


def _source(rows, schema=SCHEMA) -> Table:
    rows = sorted(rows)
    return Table(schema, rows, BASE, derive_ovcs(rows, BASE.positions(schema)))


def _rows(n=240):
    return [(i % 4, (i * 7) % 12, (i * 5) % 9) for i in range(n)]


def _typed(ovcs):
    return [(offset, type(value), value) for offset, value in ovcs]


def _assert_oracle(table, order, config=FAST):
    spec = SortSpec.of(*order)
    got = modify_sort_order(table, spec, config=config)
    assert_table_valid(got)
    assert_stable_sort_of(table.rows, got)
    rows = sorted(table.rows, key=spec.key_for(table.schema))
    assert got.rows == tuple(rows)
    assert _typed(got.ovcs) == _typed(
        derive_ovcs(rows, spec.positions(table.schema))
    )


# Each change tries its in-place form, which must raise, and returns
# the same change as ``dataclasses.replace`` arguments.

def _edit_in_place(table):
    # Last row of the table: a B beyond every remembered surrogate.
    a, _, c = table.rows[-1]
    with pytest.raises(TypeError):
        table.rows[-1] = (a, 99, c)
    return {"rows": [*table.rows[:-1], (a, 99, c)]}


def _retype_in_place(table):
    # Equal values of other types: the rows compare equal to the old
    # ones, but no code may keep the remembered ``int``.
    rows = [
        (a, True if b == 1 else b, float(c) if c == 2 else c)
        for a, b, c in table.rows
    ]
    with pytest.raises(TypeError):
        table.rows[:] = rows
    return {"rows": rows}


def _append(table):
    row = (table.rows[-1][0] + 1, -5, 0)
    with pytest.raises(AttributeError):
        table.rows.append(row)
    return {"rows": [*table.rows, row]}


def _reassign(table):
    rows = sorted((a, 11 - b, c) for a, b, c in table.rows)
    with pytest.raises(FrozenInstanceError):
        table.rows = rows
    return {"rows": rows}


def _swap_schema(table):
    # Same tuples, other names: the rows must be sorted under the
    # renamed key too, so mirror the columns the names trade.
    schema = Schema.of("C", "B", "A")
    with pytest.raises(FrozenInstanceError):
        table.schema = schema
    rows = sorted(table.rows, key=lambda r: (r[2], r[1], r[0]))
    return {"schema": schema, "rows": rows}


def _changed(table, change):
    """``table`` after ``change``, made through ``replace``: a new table
    with fresh codes and records of its own."""
    edit = change(table)
    schema = edit.get("schema", table.schema)
    new = replace(
        table, **edit, ovcs=derive_ovcs(edit["rows"], BASE.positions(schema))
    )
    assert new._facts() is not table._facts()
    assert new._facts().fields is None and new._facts().books is None
    return new


@pytest.mark.parametrize(
    "change",
    [_edit_in_place, _retype_in_place, _append, _reassign, _swap_schema],
    ids=lambda f: f.__name__.strip("_"),
)
@pytest.mark.parametrize("order", ["BAC", "ACB", "CBA"])
def test_second_request_sees_the_changed_rows(change, order):
    table = _source(_rows())
    for _ in range(2):  # the second request decides the code books
        _assert_oracle(table, order)
    remembered = table._facts().fields
    assert remembered  # the first request left fields behind
    changed = _changed(table, change)
    for config in ENGINES:
        for _ in range(2):
            _assert_oracle(changed, order, config)
    # The source is unchanged, and so are its records.
    _assert_oracle(table, order)
    assert table._facts().fields is remembered


@pytest.mark.parametrize(
    "change", [_edit_in_place, _retype_in_place],
    ids=lambda f: f.__name__.strip("_"),
)
def test_a_booked_column_edited_in_place(change):
    """Each plain-int column of few values gets a book on its second
    use; an in-place edit of a booked column raises, and the table the
    same edit makes through ``replace`` codes the new value, of the new
    type."""
    table = _source(_rows())
    for _ in range(2):
        _assert_oracle(table, "CBA")
    books = table._facts().books
    assert {pc: (span.start, span.stop) for pc, span in books.items()} == {
        0: (0, 4), 1: (0, 12), 2: (0, 9),
    }
    changed = _changed(table, change)
    for config in ENGINES:
        for _ in range(2):
            _assert_oracle(changed, "CBA", config)


def test_equal_rows_keep_the_fields():
    table = _source(_rows())
    _assert_oracle(table, "BAC")
    remembered = table._facts().fields
    # An equal table is another value with records of its own; the
    # source keeps its fields.
    same = replace(table, rows=list(table.rows))
    assert same == table and same._facts() is not table._facts()
    _assert_oracle(same, "CBA")
    _assert_oracle(table, "CBA")
    assert table._facts().fields is remembered
    assert sorted(remembered) == [0, 1, 2]


def test_full_sorts_of_one_unordered_table_build_fields_once(monkeypatch):
    built = []

    def counting(values):
        built.append(len(values))
        return column_field(values)

    monkeypatch.setattr(packed, "column_field", counting)
    table = Table(SCHEMA, _rows())
    spec = SortSpec.of("C", "A", "B")

    def full_sort(table):
        got = Query(table).order_by(*spec.names, config=FAST).to_table()
        assert_table_valid(got)
        assert_stable_sort_of(table.rows, got)
        rows = sorted(table.rows, key=spec.key_for(SCHEMA))
        assert got.sort_spec == spec
        assert got.rows == tuple(rows)
        assert _typed(got.ovcs) == _typed(derive_ovcs(rows, spec.positions(SCHEMA)))

    full_sort(table)
    assert len(built) == 3
    full_sort(table)
    full_sort(table)
    assert len(built) == 3  # the table's remembered fields
    edited = replace(table, **_edit_in_place(table))
    full_sort(edited)
    assert len(built) == 6
    full_sort(table)
    assert len(built) == 6


def test_a_table_ordered_both_ways_ranks_each_column_once(monkeypatch):
    """A descending column packs its ascending field complemented, so
    the second order, ``C`` flipped, builds no field; and its keys,
    which the packer ranks, run on the fast engine under ``auto``."""
    built = []

    def counting(values):
        built.append(len(values))
        return column_field(values)

    monkeypatch.setattr(packed, "column_field", counting)
    schema = Schema.of("A", "B", "C", "D")
    rows = sorted(
        (i % 4, (i * 7) % 12, f"c{(i * 5) % 9}", (1, 1.0, True, 0)[i % 4])
        for i in range(240)
    )
    base = SortSpec.of("A", "B", "C", "D")
    codes = derive_ovcs(rows, base.positions(schema))
    table = Table(schema, rows, base, codes)
    auto = ExecutionConfig(engine="auto")
    runs = []
    for order in (("A", "C", "B", "D"), ("A", "C DESC", "B", "D")):
        spec = SortSpec.of(*order)
        got, engine, fallback = _modify_sort_order(
            table, spec, "full_sort", True, None, auto
        )
        assert_table_valid(got)
        assert_stable_sort_of(table.rows, got)
        runs.append((len(built), engine, fallback))
    assert runs == [(4, "fast", False), (4, "fast", False)]


def test_two_threads_on_one_cold_table_agree_with_the_oracle():
    """Racing first requests may each build a field (equal builds);
    neither may ever read a half-built one."""
    orders = ("BAC", "CBA")
    failures: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            table = _source(_rows(600))
            barrier = threading.Barrier(len(orders))

            def work(order):
                barrier.wait(timeout=10)
                try:
                    for _ in range(3):
                        _assert_oracle(table, order)
                except BaseException as exc:  # noqa: BLE001 - reported below
                    failures.append((order, exc))

            threads = [threading.Thread(target=work, args=(o,)) for o in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures
