"""Content fingerprints: the identity of one row sequence."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import fingerprint_rows, fingerprint_table, reset_cache
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs
from repro.serve import OrderService


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
# fingerprint_table keeps its answer on the table; these pin down that
# the memo is *exact*: any change to the row sequence recomputes, and
# only a sequence that still compares equal reuses.

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
    def reassign(t):
        t.rows = [(9, 9), (1, 2)]

    def swap_unequal(t):  # same multiset, another sequence
        t.rows[0], t.rows[3] = t.rows[3], t.rows[0]

    return {
        "setitem": lambda t: t.rows.__setitem__(2, (100, 100)),
        "append": lambda t: t.rows.append((7, 7)),
        "delitem": lambda t: t.rows.__delitem__(1),
        "sort": lambda t: t.rows.sort(key=lambda r: r[0]),
        "reverse": lambda t: t.rows.reverse(),
        "reassign": reassign,
        "swap_unequal": swap_unequal,
    }


@pytest.mark.parametrize("edit", sorted(_edits()))
def test_memo_recomputes_after_every_kind_of_edit(edit, monkeypatch):
    calls = _counting(monkeypatch)
    table = Table(Schema.of(*SCHEMA), [(i % 5, i) for i in range(40)])
    before = fingerprint_table(table)
    assert fingerprint_table(table) is before  # memoized
    assert len(calls) == 1

    _edits()[edit](table)
    after = fingerprint_table(table)
    assert after == _fresh(table)
    assert after != before
    assert len(calls) == 2
    if edit in ("swap_unequal", "reverse", "sort"):
        assert after.n_rows == before.n_rows
        assert after.source_key != before.source_key
    # ... and the new answer is memoized in turn.
    assert fingerprint_table(table) is after
    assert len(calls) == 2


def test_memo_survives_replacing_a_row_by_an_equal_tuple(monkeypatch):
    calls = _counting(monkeypatch)
    table = Table(Schema.of(*SCHEMA), [(i % 5, i) for i in range(40)])
    before = fingerprint_table(table)
    replacement = tuple([table.rows[3][0], table.rows[3][1]])
    assert replacement is not table.rows[3]
    table.rows[3] = replacement
    assert fingerprint_table(table) is before
    assert before == _fresh(table)
    assert len(calls) == 1


def test_memo_notices_a_schema_change():
    table = Table(Schema.of(*SCHEMA), [(1, 2), (3, 4)])
    before = fingerprint_table(table)
    table.schema = Schema.of("X", "Y")
    after = fingerprint_table(table)
    assert after.schema == ("X", "Y")
    assert after.source_key != before.source_key


def test_memo_is_per_table_not_per_row_list():
    rows = [(1, 2), (3, 4)]
    a = Table(Schema.of(*SCHEMA), rows)
    b = Table(Schema.of("X", "Y"), rows)
    assert fingerprint_table(a).schema == SCHEMA
    assert fingerprint_table(b).schema == ("X", "Y")
    assert a == Table(Schema.of(*SCHEMA), list(rows))  # memo not compared


def test_size_shares_the_fingerprints_memo_record(monkeypatch):
    """One record (one row snapshot) carries both facts, and the size
    is revalidated by the same witness."""
    import repro.storage.pages as pages
    from repro.exec.memory import _table_nbytes, rows_nbytes

    sized = []
    real = pages.row_size_bytes
    monkeypatch.setattr(
        pages, "row_size_bytes", lambda r: sized.append(r) or real(r)
    )
    table = Table(Schema.of(*SCHEMA), [(i, "x" * i) for i in range(30)])
    fingerprint_table(table)
    record = table._facts()
    assert _table_nbytes(table) == rows_nbytes(table.rows)
    assert table._facts() is record
    assert len(sized) == 2 * 30  # one memoized pass + the check above
    table.ovcs = [(0, 0)] * 30
    assert _table_nbytes(table) == rows_nbytes(table.rows, table.ovcs)
    assert len(sized) == 3 * 30  # only the check's own pass

    table.ovcs = None
    table.rows.append((1, "yyyy"))
    assert _table_nbytes(table) == rows_nbytes(table.rows)
    assert table._facts() is not record


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


# ------------------------------------ served tables may be edited freely

SERVED = Schema.of("A", "B", "C")
SERVED_ORDERS = [
    SortSpec.of("B", "A", "C"), SortSpec.of("C DESC", "A"),
    SortSpec.of("A", "B"), SortSpec.of("B",),
]


def _assert_oracle(resp_table, source: Table, spec: SortSpec):
    """Rows == stable sorted(), codes == freshly derived ones."""
    expected = sorted(source.rows, key=spec.key_for(source.schema))
    assert resp_table.rows == expected
    assert resp_table.ovcs == derive_ovcs(
        expected, spec.positions(source.schema), spec.directions
    )


@pytest.mark.parametrize("edit", sorted(_edits()))
def test_table_mutated_between_served_requests_is_answered_afresh(edit):
    table = Table(SERVED, [(i % 3, i % 5, i % 2) for i in range(60)])
    spec = SortSpec.of("B", "A")  # full-key ties: arrival order shows
    with OrderService(ExecutionConfig(cache="on", service_threads=1)) as svc:
        _assert_oracle(svc.order_by(table, spec).table, table, spec)
        assert svc.order_by(table, spec).label == "cache-hit(B,A)"
        _edits()[edit](table)
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


def _apply(table: Table, edit: tuple) -> None:
    rows, kind = table.rows, edit[0]
    if kind == "append":
        rows.append(edit[1])
    elif kind == "sort":
        rows.sort(key=edit[1].key_for(table.schema))
    elif kind == "reverse":
        rows.reverse()
    elif kind == "assign":
        table.rows = list(edit[1])
    elif rows and kind == "set":
        rows[edit[1] % len(rows)] = edit[2]
    elif rows and kind == "del":
        del rows[edit[1] % len(rows)]
    elif rows and kind == "swap":
        i, j = edit[1] % len(rows), edit[2] % len(rows)
        rows[i], rows[j] = rows[j], rows[i]


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(_row, max_size=30),
    script=st.lists(
        st.tuples(_edit, st.sampled_from(SERVED_ORDERS)), max_size=8
    ),
)
def test_random_edit_scripts_on_a_served_table(rows, script):
    """Every response over an edited table passes the oracle — a stale
    memoized fingerprint would answer from the pre-edit cache entry."""
    reset_cache()
    table = Table(SERVED, list(rows))
    try:
        with OrderService(
            ExecutionConfig(cache="on", service_threads=1)
        ) as svc:
            for spec in SERVED_ORDERS[:2]:
                _assert_oracle(svc.order_by(table, spec).table, table, spec)
            for edit, spec in script:
                _apply(table, edit)
                assert fingerprint_table(table) == _fresh(table)
                _assert_oracle(svc.order_by(table, spec).table, table, spec)
    finally:
        reset_cache()
