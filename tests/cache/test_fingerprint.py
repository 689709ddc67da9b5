"""Content fingerprints: the identity of one row sequence."""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import fingerprint_rows, fingerprint_table, reset_cache
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs
from repro.serve import OrderService
from repro.testing import assert_stable_sort_of, assert_table_valid


SCHEMA = ("A", "B")


def test_source_key_names_one_arrangement():
    # A cached order is a permutation of one row sequence: an equal
    # sequence is the same source, any other arrangement is another.
    rows = [(1, 2), (3, 4), (1, 2), (5, 6)]
    a = fingerprint_rows(rows, SCHEMA)
    assert fingerprint_rows(list(rows), SCHEMA).source_key == a.source_key
    shuffled, rng = list(rows), random.Random(0)
    while shuffled == rows:
        rng.shuffle(shuffled)
    assert fingerprint_rows(shuffled, SCHEMA).source_key != a.source_key
    # The fingerprint carries the rows it hashed, outside its identity.
    assert a.rows == tuple(rows)
    assert a == fingerprint_rows([tuple(r) for r in rows], SCHEMA)


def test_sequence_distinguishes_arrangements():
    rows = [(1, 2), (3, 4), (5, 6)]
    a = fingerprint_rows(rows, SCHEMA)
    b = fingerprint_rows(list(reversed(rows)), SCHEMA)
    assert (a.schema, a.n_rows) == (b.schema, b.n_rows)
    assert a.sequence != b.sequence
    assert a.source_key != b.source_key


def test_different_content_different_key():
    base = fingerprint_rows([(1, 2), (3, 4)], SCHEMA)
    assert fingerprint_rows([(1, 2), (3, 5)], SCHEMA).source_key \
        != base.source_key
    # A duplicate added changes the count.
    assert fingerprint_rows([(1, 2), (3, 4), (3, 4)], SCHEMA).source_key \
        != base.source_key
    # Same rows under a different schema are a different source.
    assert fingerprint_rows([(1, 2), (3, 4)], ("X", "Y")).source_key \
        != base.source_key


def test_fingerprint_table_matches_rows():
    schema = Schema.of(*SCHEMA)
    rows = [(i % 7, i % 3) for i in range(50)]
    assert fingerprint_table(Table(schema, rows)) == \
        fingerprint_rows(rows, schema.columns)


def test_empty_and_singleton():
    empty = fingerprint_rows([], SCHEMA)
    assert empty.n_rows == 0
    one = fingerprint_rows([(1, 1)], SCHEMA)
    assert one.n_rows == 1
    assert empty.source_key != one.source_key


# ------------------------------------------------- the memo on the Table
#
# fingerprint_table keeps its answer on the table, and a table is a
# value: an edit in place raises, the same edit through ``replace`` is
# a new table hashed afresh, and the old table keeps its fingerprint.

def _counting(monkeypatch):
    """Count the O(n) passes fingerprint_table actually runs."""
    import repro.cache.fingerprint as mod

    calls = []
    real = mod.fingerprint_rows

    def counted(rows, columns):
        calls.append(len(rows))
        return real(rows, columns)

    monkeypatch.setattr(mod, "fingerprint_rows", counted)
    return calls


def _fresh(table: Table):
    return fingerprint_rows(list(table.rows), table.schema.columns)


def _edits():
    """Edits of a row sequence, made in place on ``rows``."""
    def swap_unequal(rows):  # same multiset, another sequence
        rows[0], rows[3] = rows[3], rows[0]

    return {
        "setitem": lambda rows: rows.__setitem__(2, (100, 100)),
        "append": lambda rows: rows.append((7, 7)),
        "delitem": lambda rows: rows.__delitem__(1),
        "sort": lambda rows: rows.sort(key=lambda r: r[0]),
        "reverse": lambda rows: rows.reverse(),
        "reassign": lambda rows: rows.__setitem__(
            slice(None), [(9, 9), (1, 2)]
        ),
        "swap_unequal": swap_unequal,
    }


def _edited(table: Table, edit: str) -> Table:
    """``edit`` made on ``table``: on its rows in place it raises, and
    so does re-assigning them; through ``replace`` it is a new table."""
    with pytest.raises((TypeError, AttributeError)):
        _edits()[edit](table.rows)
    rows = list(table.rows)
    _edits()[edit](rows)
    with pytest.raises(FrozenInstanceError):
        table.rows = rows
    return replace(table, rows=rows)


@pytest.mark.parametrize("edit", sorted(_edits()))
def test_memo_recomputes_after_every_kind_of_edit(edit, monkeypatch):
    calls = _counting(monkeypatch)
    table = Table(Schema.of(*SCHEMA), [(i % 5, i) for i in range(40)])
    before = fingerprint_table(table)
    assert fingerprint_table(table) is before  # memoized
    assert len(calls) == 1

    edited = _edited(table, edit)
    after = fingerprint_table(edited)
    assert after == _fresh(edited)
    assert after != before
    assert len(calls) == 2
    if edit in ("swap_unequal", "reverse", "sort"):
        assert after.n_rows == before.n_rows
        assert after.source_key != before.source_key
    # ... and the new answer is memoized in turn; the source keeps its.
    assert fingerprint_table(edited) is after
    assert fingerprint_table(table) is before
    assert len(calls) == 2


def test_memo_survives_replacing_a_row_by_an_equal_tuple(monkeypatch):
    """An equal row is the same source: the table keeps its memo, and
    a table rebuilt with the equal row has its own, with an equal key."""
    calls = _counting(monkeypatch)
    table = Table(Schema.of(*SCHEMA), [(i % 5, i) for i in range(40)])
    before = fingerprint_table(table)
    replacement = tuple([table.rows[3][0], table.rows[3][1]])
    assert replacement is not table.rows[3]
    with pytest.raises(TypeError):
        table.rows[3] = replacement
    rows = list(table.rows)
    rows[3] = replacement
    same = replace(table, rows=rows)
    assert same == table
    assert fingerprint_table(table) is before
    assert fingerprint_table(same) == before == _fresh(same)
    assert fingerprint_table(same).source_key == before.source_key
    assert len(calls) == 2


def test_memo_notices_a_schema_change():
    table = Table(Schema.of(*SCHEMA), [(1, 2), (3, 4)])
    before = fingerprint_table(table)
    with pytest.raises(FrozenInstanceError):
        table.schema = Schema.of("X", "Y")
    after = fingerprint_table(replace(table, schema=Schema.of("X", "Y")))
    assert after.schema == ("X", "Y")
    assert after.source_key != before.source_key


def test_memo_is_per_table_not_per_row_list():
    rows = [(1, 2), (3, 4)]
    a = Table(Schema.of(*SCHEMA), rows)
    b = Table(Schema.of("X", "Y"), rows)
    assert fingerprint_table(a).schema == SCHEMA
    assert fingerprint_table(b).schema == ("X", "Y")
    assert a == Table(Schema.of(*SCHEMA), list(rows))  # memo not compared


def test_eight_threads_fingerprinting_one_table_agree():
    import sys
    import threading

    table = Table(Schema.of(*SCHEMA), [(i % 11, i) for i in range(3000)])
    expected = _fresh(table)
    got, barrier = [], threading.Barrier(8)

    def work():
        barrier.wait(timeout=10)
        for _ in range(20):
            got.append(fingerprint_table(table))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 160 and all(fp == expected for fp in got)


# ------------------------ edits of a served table make new tables

SERVED = Schema.of("A", "B", "C")
SERVED_ORDERS = [
    SortSpec.of("B", "A", "C"), SortSpec.of("C DESC", "A"),
    SortSpec.of("A", "B"), SortSpec.of("B",),
]


def _assert_oracle(resp_table, source: Table, spec: SortSpec):
    """Rows == stable sorted(), codes == freshly derived ones."""
    assert_table_valid(resp_table)
    assert_stable_sort_of(source.rows, resp_table)
    expected = sorted(source.rows, key=spec.key_for(source.schema))
    assert resp_table.rows == tuple(expected)
    assert resp_table.ovcs == tuple(derive_ovcs(
        expected, spec.positions(source.schema), spec.directions
    ))


@pytest.mark.parametrize("edit", sorted(_edits()))
def test_table_mutated_between_served_requests_is_answered_afresh(edit):
    table = Table(SERVED, [(i % 3, i % 5, i % 2) for i in range(60)])
    spec = SortSpec.of("B", "A")  # full-key ties: arrival order shows
    with OrderService(ExecutionConfig(cache="on", service_threads=1)) as svc:
        _assert_oracle(svc.order_by(table, spec).table, table, spec)
        assert svc.order_by(table, spec).label == "cache-hit(B,A)"
        edited = _edited(table, edit)
        _assert_oracle(svc.order_by(edited, spec).table, edited, spec)
        _assert_oracle(svc.order_by(table, spec).table, table, spec)


_row = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
_edit = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 200), _row),
    st.tuples(st.just("append"), _row),
    st.tuples(st.just("del"), st.integers(0, 200)),
    st.tuples(st.just("swap"), st.integers(0, 200), st.integers(0, 200)),
    st.tuples(st.just("sort"), st.sampled_from(SERVED_ORDERS)),
    st.tuples(st.just("reverse")),
    st.tuples(st.just("assign"), st.lists(_row, max_size=12)),
    st.tuples(st.just("same")),  # no edit: the repeat must still be right
)


def _apply(table: Table, edit: tuple) -> Table:
    """``table`` after ``edit``: a new table unless the edit is none."""
    rows, kind = list(table.rows), edit[0]
    if kind == "same":
        return table
    if kind == "append":
        rows.append(edit[1])
    elif kind == "sort":
        rows.sort(key=edit[1].key_for(table.schema))
    elif kind == "reverse":
        rows.reverse()
    elif kind == "assign":
        rows = list(edit[1])
    elif rows and kind == "set":
        rows[edit[1] % len(rows)] = edit[2]
    elif rows and kind == "del":
        del rows[edit[1] % len(rows)]
    elif rows and kind == "swap":
        i, j = edit[1] % len(rows), edit[2] % len(rows)
        rows[i], rows[j] = rows[j], rows[i]
    return replace(table, rows=rows)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(_row, max_size=30),
    script=st.lists(
        st.tuples(_edit, st.sampled_from(SERVED_ORDERS)), max_size=8
    ),
)
def test_random_edit_scripts_on_a_served_table(rows, script):
    """Every response over an edited table passes the oracle — a
    fingerprint kept across an edit would answer from the pre-edit
    cache entry."""
    reset_cache()
    table = Table(SERVED, list(rows))
    try:
        with OrderService(
            ExecutionConfig(cache="on", service_threads=1)
        ) as svc:
            for spec in SERVED_ORDERS[:2]:
                _assert_oracle(svc.order_by(table, spec).table, table, spec)
            for edit, spec in script:
                table = _apply(table, edit)
                assert fingerprint_table(table) == _fresh(table)
                _assert_oracle(svc.order_by(table, spec).table, table, spec)
    finally:
        reset_cache()
