"""A table is a value: what the library hands out it may share.

``Table`` is a frozen dataclass whose ``rows`` and ``ovcs`` are tuples,
so no caller can change a table the library keeps facts on, a cache
entry, or a response.  These tests pin down what that buys: a hit
shares the entry's sequences instead of copying them, an edit made
through ``dataclasses.replace`` is a new table with records of its own,
and the library never writes into its caller's table.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import FrozenInstanceError, replace

import pytest

import repro.ovc.derive as derive_mod
from repro import ExecutionConfig, Schema, SortSpec, Table, modify_sort_order
from repro.cache import (
    CachedOrder,
    configure_cache,
    fingerprint_table,
    get_cache,
    reset_cache,
)
from repro.engine import Sort, TableScan
from repro.obs import METRICS
from repro.ovc.derive import derive_ovcs
from repro.plan import derive_batch
from repro.serve import OrderService
from repro.testing import assert_stable_sort_of, assert_table_valid
from repro.workloads.generators import random_table

SCHEMA = Schema.of("A", "B", "C")
BASE = SortSpec.of("A", "B", "C")
TARGET = SortSpec.of("B", "A")
ENGINES = [ExecutionConfig(engine="fast"), ExecutionConfig(engine="reference")]


@pytest.fixture(autouse=True)
def _fresh_cache():
    reset_cache()
    yield
    reset_cache()


def _unsorted(n=300, seed=4) -> Table:
    return random_table(SCHEMA, n, domains=[4, 6, 5], seed=seed)


def _sorted(n=300, seed=4, codes=True) -> Table:
    rows = sorted(_unsorted(n, seed).rows)
    ovcs = derive_ovcs(rows, BASE.positions(SCHEMA)) if codes else None
    return Table(SCHEMA, rows, BASE, ovcs)


def test_a_list_built_table_equals_a_tuple_built_one():
    rows = [(1, 2, 3), (1, 2, 4)]
    ovcs = [(0, 1), (2, 4)]
    from_lists = Table(SCHEMA, rows, BASE, ovcs)
    from_tuples = Table(SCHEMA, tuple(rows), BASE, tuple(ovcs))
    assert from_lists == from_tuples
    assert type(from_lists.rows) is tuple and type(from_lists.ovcs) is tuple
    # The list was copied once, so editing it changes no table.
    rows.append((2, 0, 0))
    assert len(from_lists) == 2
    # A tuple passes through uncopied.
    assert Table(SCHEMA, from_tuples.rows).rows is from_tuples.rows


def test_a_hit_at_submit_shares_the_entrys_sequences():
    table = _unsorted()
    cfg = ExecutionConfig(cache="on", service_threads=1)
    with OrderService(cfg) as svc:
        cold = svc.order_by(table, TARGET)
        assert cold.label == "full-sort"
        entry = get_cache().lookup(fingerprint_table(table), TARGET)
        assert entry.state == "memo"
        for _ in range(2):
            resp = svc.order_by(table, TARGET)
            assert resp.label == "cache-hit(B,A)"
            assert resp.table is entry.table
            assert_table_valid(resp.table)
            assert_stable_sort_of(table.rows, resp.table)
            # ... and no response can change the entry.
            with pytest.raises(TypeError):
                resp.table.rows[0] = resp.table.rows[-1]
            with pytest.raises(AttributeError):
                resp.table.ovcs.clear()
            with pytest.raises(FrozenInstanceError):
                resp.table.rows = ()
    again = get_cache().lookup(fingerprint_table(table), TARGET)
    assert again is entry


def _spy_constructors(monkeypatch) -> list:
    """Record every ``Table`` and ``CachedOrder`` built from now on."""
    built = []
    post_init, new = Table.__post_init__, CachedOrder.__new__

    def table_built(self):
        built.append(Table)
        post_init(self)

    def order_built(cls, *args, **kwargs):
        built.append(CachedOrder)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Table, "__post_init__", table_built)
    monkeypatch.setattr(CachedOrder, "__new__", staticmethod(order_built))
    return built


def test_a_memo_hit_builds_no_table_and_no_read(monkeypatch):
    """A memo hit hands out the entry's one table, at submit and
    through ``Sort`` alike: nothing is constructed per hit."""
    table = _unsorted()
    cfg = ExecutionConfig(cache="on", service_threads=1)
    with OrderService(cfg) as svc:
        svc.order_by(table, TARGET)  # executes and installs
        first = svc.order_by(table, TARGET).table
        built = _spy_constructors(monkeypatch)
        outs = [svc.order_by(table, TARGET).table for _ in range(3)]
        op = Sort(TableScan(table), TARGET, config=cfg)
        outs.append(op.to_table())
        assert op.order_strategy == "cache-hit(B,A)"
        assert built == []
        # The spies see what they are there to see.
        CachedOrder(TARGET, None, None, (), "flat", 0)
        Table(SCHEMA, ())
        assert built == [CachedOrder, Table]
    assert all(out is first for out in outs)
    assert_table_valid(first)
    assert_stable_sort_of(table.rows, first)


def test_a_read_after_the_memo_is_dropped_builds_a_fresh_table(tmp_path):
    """A budget that holds one entry's memo: installing a second order
    drops both memos, and each later read of the first order gathers a
    table of its own from the flat form."""
    table = _unsorted()
    fp = fingerprint_table(table)
    cfg = ExecutionConfig(cache="on", service_threads=1)
    with OrderService(cfg) as svc:
        svc.order_by(table, TARGET)
        size = get_cache().lookup(fp, TARGET).nbytes
    configure_cache(budget=size, spill_dir=str(tmp_path))
    other = SortSpec.of("C", "B")
    with OrderService(cfg) as svc:
        svc.order_by(table, TARGET)
        memo = svc.order_by(table, TARGET).table
        assert get_cache().lookup(fp, TARGET).table is memo
        svc.order_by(table, other)
        states = {c.spec: c.state for c in get_cache().candidates(fp)}
        assert states == {TARGET: "flat", other: "flat"}
        outs = [svc.order_by(table, TARGET) for _ in range(2)]
    assert [out.label for out in outs] == ["cache-hit(B,A)"] * 2
    fresh = [out.table for out in outs]
    assert fresh[0] is not memo and fresh[1] is not fresh[0]
    for out in fresh:
        assert out == memo
        assert_table_valid(out)
        assert_stable_sort_of(table.rows, out)


def test_dropping_a_memo_frees_what_callers_hung_on_it(tmp_path):
    """A caller's computation on a memo hit keeps its records (key
    fields, code record) on the entry's memo table, uncharged; the
    memo dropped under pressure takes the table and them with it."""
    table = _unsorted()
    fp = fingerprint_table(table)
    cfg = ExecutionConfig(cache="on", service_threads=1)
    with OrderService(cfg) as svc:
        svc.order_by(table, TARGET)
        size = get_cache().lookup(fp, TARGET).nbytes
    configure_cache(budget=size, spill_dir=str(tmp_path))
    with OrderService(cfg) as svc:
        svc.order_by(table, TARGET)
        memo = svc.order_by(table, TARGET).table
        assert get_cache().lookup(fp, TARGET).table is memo
        out = modify_sort_order(
            memo, SortSpec.of("B", "C"), config=ExecutionConfig(engine="fast")
        )
        assert_stable_sort_of(memo.rows, out)
        assert memo._facts().fields and memo._code_memo is not None
        assert get_cache().accountant.used == size
        held = weakref.ref(memo)
        del memo, out
        gc.collect()
        assert held() is not None  # the entry's memo
        svc.order_by(table, SortSpec.of("C", "B"))  # pressure
    gc.collect()
    assert held() is None
    assert get_cache().lookup(fp, TARGET).state == "flat"


@pytest.mark.parametrize("cfg", ENGINES, ids=["fast", "reference"])
def test_sort_to_table_over_a_cached_plan_copies_nothing(cfg):
    cfg = cfg.with_(cache="on")
    for source in (_unsorted(), _sorted()):
        first = Sort(TableScan(source), TARGET, config=cfg).to_table()
        entry = get_cache().lookup(fingerprint_table(source), TARGET)
        for _ in range(2):
            op = Sort(TableScan(source), TARGET, config=cfg)
            out = op.to_table()
            assert op.order_strategy == "cache-hit(B,A)"
            assert out is entry.table
            assert out == first
            assert_table_valid(out)
            assert_stable_sort_of(source.rows, out)


def test_tables_replaced_from_one_source_never_share_a_record():
    source = _sorted()
    modify_sort_order(source, TARGET)
    record = source._codes()
    a = replace(source, rows=list(source.rows))
    b = replace(source, sort_spec=source.sort_spec)
    for table in (a, b):
        assert table == source
        assert table.ovcs is source.ovcs
        for cfg in ENGINES:
            out = modify_sort_order(table, TARGET, config=cfg)
            assert_table_valid(out)
            assert_stable_sort_of(table.rows, out)
    assert a._codes() is not b._codes()
    assert record not in (a._codes(), b._codes())
    assert a._facts() is not b._facts()
    assert source._codes() is record


@pytest.mark.parametrize("cfg", ENGINES, ids=["fast", "reference"])
def test_the_library_never_writes_into_its_callers_table(cfg):
    table = _sorted(codes=False)
    for spec in (TARGET, SortSpec.of("A", "C"), SortSpec.of("A DESC")):
        out = modify_sort_order(table, spec, config=cfg)
        assert table.ovcs is None
        assert_table_valid(out)
        assert_stable_sort_of(table.rows, out)
    Sort(TableScan(table), TARGET, config=cfg).to_table()
    assert table.ovcs is None


def test_repeat_calls_on_an_uncoded_table_derive_codes_once(monkeypatch):
    derived = []
    real = derive_mod.derive_table_ovcs

    def counting(table, stats=None):
        derived.append(len(table))
        return real(table, stats)

    monkeypatch.setattr(derive_mod, "derive_table_ovcs", counting)
    table = _sorted(codes=False)
    outs = [
        modify_sort_order(table, spec, config=cfg)
        for cfg in ENGINES
        for spec in (TARGET, SortSpec.of("A", "C"), TARGET)
    ]
    assert derived == [len(table)]
    coded = table.with_ovcs()
    assert coded.rows is table.rows and coded.ovcs is not None
    assert TableScan(table).to_table() is coded
    assert coded._codes() is coded._codes()  # one code record, reused
    for out in outs:
        assert_table_valid(out)
        assert_stable_sort_of(table.rows, out)


def test_a_coded_copy_shares_its_sources_row_record():
    """The coded table ``with_ovcs()`` derives has the source's rows,
    so it shares the source's row record: serving a sorted table
    without codes hashes its rows once, on the service's path and the
    batch executor's alike."""
    table = _sorted(codes=False)
    coded = table.with_ovcs()
    assert coded._facts() is table._facts()
    assert coded._codes() is not None and table.ovcs is None
    METRICS.enable(clear=True)
    try:
        cfg = ExecutionConfig(cache="on", service_threads=1)
        with OrderService(cfg) as svc:
            for spec in (TARGET, SortSpec.of("A", "C"), TARGET):
                out = svc.order_by(table, spec).table
                assert_table_valid(out)
                assert_stable_sort_of(table.rows, out)
        batch = derive_batch(table, [SortSpec.of("C", "A")], config=cfg)
        for out in batch.tables():
            assert_table_valid(out)
            assert_stable_sort_of(table.rows, out)
        passes = METRICS.as_dict()["counters"]["cache.fingerprint_passes"]
    finally:
        METRICS.disable()
    assert passes == 1
    assert table.ovcs is None
