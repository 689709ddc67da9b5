"""A table is a value: what the library hands out it may share.

``Table`` is a frozen dataclass whose ``rows`` and ``ovcs`` are tuples,
so no caller can change a table the library keeps facts on, a cache
entry, or a response.  These tests pin down what that buys: a hit
shares the entry's sequences instead of copying them, an edit made
through ``dataclasses.replace`` is a new table with records of its own,
and the library never writes into its caller's table.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, replace

import pytest

import repro.ovc.derive as derive_mod
from repro import ExecutionConfig, Schema, SortSpec, Table, modify_sort_order
from repro.cache import fingerprint_table, get_cache, reset_cache
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
            assert resp.table.rows is entry.rows
            assert resp.table.ovcs is entry.ovcs
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
    assert again.rows is entry.rows and again.ovcs is entry.ovcs


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
            assert out.rows is entry.rows and out.ovcs is entry.ovcs
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
