"""A table's codes are classified once, for as long as the table lives.

``Table._codes()`` keeps one record of what the codes say (offsets,
heads, segment bounds, the fast merge's chunks, ``auto``'s strategy),
built on first use.  A table is a value, so the record is never
revalidated: an edit in place raises, and the same edit made through
``dataclasses.replace`` is a new table with a record of its own.
Every test here either counts that repeat orders reuse the record or
makes such an edit between two requests and checks the new table's
answers against the one oracle, on both engines.
"""

from __future__ import annotations

import random
import threading
from dataclasses import FrozenInstanceError, replace

import pytest

import repro.core.classify as classify
import repro.core.modify as modify_mod
import repro.fastpath.execute as execute
from repro import ExecutionConfig, Schema, SortSpec, Table, modify_sort_order
from repro.core.analysis import analyze_order_modification
from repro.ovc.derive import derive_ovcs
from repro.testing import assert_stable_sort_of, assert_table_valid

SCHEMA = Schema.of("A", "B", "C", "D")
BASE = SortSpec.of("A", "B", "C", "D")
ENGINES = [ExecutionConfig(engine="fast"), ExecutionConfig(engine="reference")]
#: Merges within segments (chunked and row-wise, retained and dropped
#: infix) and over the whole input, a segment sort, a backward plan.
ORDERS = [
    SortSpec.of(*order)
    for order in ("ACBD", "BACD", "AC", "ACD", "ABDC", "CDAB", "ADCB")
] + [SortSpec.of("B DESC", "A DESC")]


def _rows(n=600, seed=3):
    """Random rows over small domains (heavy ties, so merges chunk),
    plus one row alone in its ``(A, B)`` group per ``A`` value."""
    rng = random.Random(seed)
    rows = [
        (rng.randrange(4), rng.randrange(3), rng.randrange(5), rng.randrange(8))
        for _ in range(n)
    ]
    return rows + [(a, 10 + a, 2, 0) for a in range(4)]


def _table(rows) -> Table:
    rows = sorted(rows)
    return Table(SCHEMA, rows, BASE, derive_ovcs(rows, BASE.positions(SCHEMA)))


def _typed(ovcs):
    return [(offset, type(value), value) for offset, value in ovcs]


def _check(table, order, cfg):
    got = modify_sort_order(table, order, config=cfg)
    assert_table_valid(got)
    assert_stable_sort_of(table.rows, got)
    return got


def test_repeat_orders_classify_the_codes_once(monkeypatch):
    calls = []
    real = classify.code_offsets

    def counting(ovcs):
        calls.append(1)
        return real(ovcs)

    for mod in (classify, modify_mod, execute):
        if getattr(mod, "code_offsets", None) is not None:
            monkeypatch.setattr(mod, "code_offsets", counting)
    table = _table(_rows())
    for cfg in ENGINES:
        for order in (ORDERS[0], ORDERS[1], ORDERS[0]):
            _check(table, order, cfg)
    assert len(calls) == 1


def test_the_plan_is_memoized():
    spec = SortSpec.of("A", "C", "B", "D")
    assert analyze_order_modification(BASE, spec) is (
        analyze_order_modification(BASE, spec)
    )


# Each edit tries its in-place form, which must raise, and returns the
# same change made through ``replace``.

def _edit_rows_keep_codes(table):
    """Change ``C`` of rows that differ from both neighbours in ``A``
    or ``B``: the order and every code stay as they were, but the
    restricted keys of ``A,C,...`` orders move."""
    rows, ovcs = list(table.rows), table.ovcs
    edited = 0
    for i in range(1, len(rows) - 1):
        if ovcs[i][0] <= 1 and ovcs[i + 1][0] <= 1:
            a, b, c, d = rows[i]
            rows[i] = (a, b, c + 5, d)
            edited += 1
    assert edited
    assert ovcs == tuple(derive_ovcs(rows, BASE.positions(SCHEMA)))
    with pytest.raises(TypeError):
        table.rows[1] = rows[1]
    return replace(table, rows=rows)


def _edit_both_in_place(table):
    rows = sorted(_rows(seed=5) + [(1, 1, 1, 1)] * 40)
    ovcs = derive_ovcs(rows, BASE.positions(SCHEMA))
    with pytest.raises(TypeError):
        table.rows[:] = rows
    with pytest.raises(TypeError):
        table.ovcs[:] = ovcs
    return replace(table, rows=rows, ovcs=ovcs)


def _reassign_both(table):
    rows = sorted(_rows(n=450, seed=1))
    ovcs = derive_ovcs(rows, BASE.positions(SCHEMA))
    with pytest.raises(FrozenInstanceError):
        table.rows = rows
    with pytest.raises(FrozenInstanceError):
        table.ovcs = ovcs
    return replace(table, rows=rows, ovcs=ovcs)


def _duplicate_in_place(table):
    """Each tenth row becomes a copy of its predecessor: offsets, heads
    and segment bounds all move."""
    rows = list(table.rows)
    for i in range(1, len(rows), 10):
        rows[i] = rows[i - 1]
    with pytest.raises(TypeError):
        table.rows[1] = table.rows[0]
    return replace(
        table, rows=rows, ovcs=derive_ovcs(rows, BASE.positions(SCHEMA))
    )


@pytest.mark.parametrize(
    "edit",
    [_edit_rows_keep_codes, _edit_both_in_place, _reassign_both,
     _duplicate_in_place],
)
@pytest.mark.parametrize("cfg", ENGINES, ids=["fast", "reference"])
def test_an_edit_is_answered_from_fresh_facts(edit, cfg):
    table = _table(_rows())
    for order in ORDERS:
        _check(table, order, cfg)
    before = table._codes()
    edited = edit(table)
    for order in ORDERS:
        _check(edited, order, cfg)
    # Even codes that did not change are classified for the new table.
    assert edited._codes() is not before
    assert edited._facts() is not table._facts()
    # The source still answers, from its own records.
    for order in ORDERS:
        _check(table, order, cfg)
    assert table._codes() is before


def test_threads_first_touching_one_table_match_serial():
    orders = ORDERS
    rows = sorted(_rows(n=1 << 12))
    serial = _table(rows)
    want = [
        (got.rows, _typed(got.ovcs))
        for got in (modify_sort_order(serial, spec) for spec in orders)
    ]
    for _ in range(3):
        table = _table(rows)
        barrier = threading.Barrier(2)
        results: dict[int, list] = {}

        def worker(k):
            barrier.wait()
            results[k] = [
                (got.rows, _typed(got.ovcs))
                for got in (
                    modify_sort_order(table, spec)
                    for spec in orders[k:] + orders[:k]
                )
            ]

        threads = [threading.Thread(target=worker, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results[0] == want
        assert results[1] == want[1:] + want[:1]
