"""Order normalization: unique-prefix truncation and its coalescing win."""

from __future__ import annotations

import random
import threading
from dataclasses import replace

import pytest

from repro.cache import fingerprint_table
from repro.engine.scans import TableScan
from repro.engine.sort_op import Sort
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.obs import METRICS
from repro.serve import OrderService, SpecNormalizer
import repro.serve.service as service_mod

SCHEMA = Schema.of("A", "B", "C")


def _unique_a_table(n_rows=120, seed=0):
    """Column ``A`` is row-unique; ``B``/``C`` carry heavy duplication."""
    rng = random.Random(seed)
    keys = list(range(n_rows))
    rng.shuffle(keys)
    rows = [(k, k % 5, k % 3) for k in keys]
    return Table(SCHEMA, rows, None, None)


def _dup_table(n_rows=120, seed=1):
    """No proper prefix of any order is row-unique."""
    rng = random.Random(seed)
    rows = [
        (rng.randrange(4), rng.randrange(4), rng.randrange(4))
        for _ in range(n_rows)
    ]
    return Table(SCHEMA, rows, None, None)


# ----------------------------------------------------------------- unit


def test_truncates_to_shortest_unique_prefix():
    table = _unique_a_table()
    fp = fingerprint_table(table)
    norm = SpecNormalizer()
    spec = SortSpec.of("A", "B", "C")
    assert norm.normalize(fp, table, spec) == SortSpec.of("A")


def test_non_unique_prefix_left_untouched():
    table = _dup_table()
    fp = fingerprint_table(table)
    norm = SpecNormalizer()
    spec = SortSpec.of("A", "B")
    assert norm.normalize(fp, table, spec) is spec


def test_direction_of_the_kept_prefix_is_preserved():
    table = _unique_a_table()
    fp = fingerprint_table(table)
    norm = SpecNormalizer()
    got = norm.normalize(fp, table, SortSpec.of("A DESC", "B"))
    assert got == SortSpec.of("A DESC")
    assert got.directions == (False,)


def test_single_column_spec_never_probed():
    table = _dup_table()
    fp = fingerprint_table(table)
    norm = SpecNormalizer()
    spec = SortSpec.of("A")
    assert norm.normalize(fp, table, spec) is spec
    assert norm._memo == {}


def test_uniqueness_memoized_per_column_set():
    table = _unique_a_table()
    fp = fingerprint_table(table)
    norm = SpecNormalizer()
    norm.normalize(fp, table, SortSpec.of("A", "B"))
    key = (fp.source_key, frozenset({"A"}))
    assert norm._memo[key] is True
    # A different arrangement/direction over the same column set reuses
    # the probe (the memo is the only state, so hitting it again must
    # not add entries).
    norm.normalize(fp, table, SortSpec.of("A DESC", "C"))
    assert list(norm._memo) == [key]


def test_truncation_memoized_per_spec(monkeypatch):
    """A unique-prefix source is truncated on the first call and, from
    the spec memo without a probe, on the repeat; a spec left whole
    comes back as the object passed in, not the memoized equal one."""
    norm = SpecNormalizer()
    unique, dup = _unique_a_table(), _dup_table()
    first = norm.normalize(fingerprint_table(unique), unique, SortSpec.of("A", "B"))
    assert first == SortSpec.of("A")
    norm.normalize(fingerprint_table(dup), dup, SortSpec.of("A", "B"))
    monkeypatch.setattr(norm, "_unique", lambda *a: pytest.fail("probed"))
    again = norm.normalize(fingerprint_table(unique), unique, SortSpec.of("A", "B"))
    assert again == SortSpec.of("A")
    spec = SortSpec.of("A", "B")
    assert norm.normalize(fingerprint_table(dup), dup, spec) is spec


def test_source_edited_in_place_is_probed_anew():
    """An in-place edit raises; the edited table ``replace`` makes is
    another row sequence, probed afresh, and the source keeps its
    answer."""
    table = _unique_a_table()
    norm = SpecNormalizer()
    spec = SortSpec.of("A", "B")
    assert norm.normalize(fingerprint_table(table), table, spec) == SortSpec.of("A")
    row = (table.rows[0][0], 4, 2)  # A is no longer unique
    with pytest.raises(TypeError):
        table.rows[1] = row
    edited = replace(table, rows=[table.rows[0], row, *table.rows[2:]])
    assert norm.normalize(fingerprint_table(edited), edited, spec) is spec
    assert norm.normalize(fingerprint_table(table), table, spec) == SortSpec.of("A")


def test_memos_stay_within_max_entries():
    norm = SpecNormalizer(max_entries=4)
    orders = [("A", "B"), ("B", "C"), ("C", "A"), ("A", "C", "B")]
    for seed in range(6):
        for table in (_unique_a_table(seed=seed), _dup_table(seed=seed)):
            fp = fingerprint_table(table)
            for order in orders:
                norm.normalize(fp, table, SortSpec(order))
                assert len(norm._specs) <= 4 and len(norm._memo) <= 4


# ----------------------------------------------------------- end-to-end


def test_service_serves_truncated_order_bit_identically():
    METRICS.enable(clear=True)
    table = _unique_a_table()
    spec = SortSpec.of("A", "B", "C")
    op = Sort(TableScan(table), spec, config=ExecutionConfig(cache="off"))
    ref = op.to_table()
    with OrderService(ExecutionConfig(cache="off", service_threads=1)) as svc:
        resp = svc.order_by(table, spec, timeout=60)
    assert resp.table.sort_spec == SortSpec.of("A")
    assert resp.table.rows == ref.rows
    assert resp.table.ovcs == ref.ovcs
    assert METRICS.as_dict()["counters"]["serve.normalized_orders"] == 1


class _FrozenSort:
    started = None  # type: threading.Event
    release = None  # type: threading.Event

    def __init__(self, child, spec, config=None):
        self._child = child
        self._spec = spec
        self.order_strategy = "frozen"

    def _answer(self):  # the output, and no install to run
        type(self).started.set()
        assert type(self).release.wait(timeout=30), "never released"
        return self._child.source, None


class _Scan:
    def __init__(self, table):
        self.source = table


def test_equivalent_orders_coalesce_after_normalization(monkeypatch):
    """The satellite regression: ``(A,B)`` and ``(A,C)`` over a
    unique-``A`` source are one in-flight entry, not two executions."""
    _FrozenSort.started = threading.Event()
    _FrozenSort.release = threading.Event()
    monkeypatch.setattr(service_mod, "Sort", _FrozenSort)
    monkeypatch.setattr(service_mod, "TableScan", _Scan)
    table = _unique_a_table()
    cfg = ExecutionConfig(cache="off", service_threads=1,
                          service_queue_depth=8)
    with OrderService(cfg) as svc:
        blocker = svc.submit(_dup_table(), SortSpec.of("B", "C"))
        assert _FrozenSort.started.wait(timeout=10)  # worker occupied
        first = svc.submit(table, SortSpec.of("A", "B"))
        second = svc.submit(table, SortSpec.of("A", "C"))
        assert first.coalesced is False
        assert second.coalesced is True  # same normalized key
        _FrozenSort.release.set()
        first.result(timeout=30)
        second.result(timeout=30)
        blocker.result(timeout=30)
        counters = svc.counters()
    assert counters["coalesced"] == 1
    assert counters["executions"] == 2  # blocker + one shared execution
