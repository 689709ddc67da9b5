"""OrderService behavior: coalescing, bit-identity, overload, deadlines.

The acceptance bar (mirrored by ``serve --load`` and CI):

* under 16-thread closed-loop load with 4 distinct orders each
  requested by 4 threads, ``serve.coalesced_requests > 0`` and
  executions < requests — duplicates share work;
* every response's rows and offset-value codes are bit-identical to a
  serial uncached execution;
* a full admission queue raises ``ServiceOverloadError`` immediately —
  no deadlock, no unbounded buffering.

The deterministic tests freeze execution with a stub Sort operator
(patched into ``repro.serve.service``) so queue/registry states are
exact, not timing-dependent.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import pytest

from repro.engine.scans import TableScan
from repro.engine.sort_op import Sort
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec
from repro.obs import METRICS
from repro.ovc.derive import derive_ovcs
from repro.serve import (
    DeadlineExceededError,
    OrderService,
    ServiceClosedError,
    ServiceOverloadError,
)
import repro.serve.service as service_mod
from repro.testing import assert_stable_sort_of, assert_table_valid
from repro.workloads.generators import random_table

SCHEMA = Schema.of("A", "B", "C", "D")
DOMAINS = [16, 24, 48, 8]


def _table(n_rows=400, seed=0):
    return random_table(SCHEMA, n_rows, domains=DOMAINS, seed=seed)


def _serial_uncached(table, spec):
    op = Sort(TableScan(table), spec, config=ExecutionConfig(cache="off"))
    out = op.to_table()
    return out.rows, out.ovcs


def _assert_valid(resp, source):
    """A response is sorted with authentic codes, and is the stable
    sort of its source."""
    assert_table_valid(resp.table)
    assert_stable_sort_of(source.rows, resp.table)


def _scribble(table):
    """Every way of changing a response raises."""
    with pytest.raises(AttributeError):
        table.rows.reverse()
    with pytest.raises(AttributeError):
        table.rows.pop()
    with pytest.raises(AttributeError):
        table.ovcs.clear()
    with pytest.raises(FrozenInstanceError):
        table.rows = []


# ------------------------------------------------------------ acceptance


def test_sixteen_thread_duplicate_load_coalesces_and_stays_bit_identical():
    METRICS.enable(clear=True)
    table = _table(500)
    cols = list(SCHEMA.columns)
    orders = [SortSpec(cols[i:] + cols[:i]) for i in range(4)]
    refs = {i: _serial_uncached(table, spec) for i, spec in enumerate(orders)}

    cfg = ExecutionConfig(cache="off", service_threads=2,
                          service_queue_depth=64)
    n_threads, waves = 16, 6
    barrier = threading.Barrier(n_threads)
    failures: list[str] = []

    def _client(t):
        spec = orders[t % len(orders)]
        rows, ovcs = refs[t % len(orders)]
        for _ in range(waves):
            barrier.wait()
            resp = svc.order_by(table, spec, tenant=f"t{t}", timeout=60)
            if resp.table.rows != rows:
                failures.append(f"thread {t}: rows diverged")
            if resp.table.ovcs != ovcs:
                failures.append(f"thread {t}: codes diverged")

    with OrderService(cfg) as svc:
        threads = [
            threading.Thread(target=_client, args=(t,))
            for t in range(n_threads)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        counters = svc.counters()

    assert not failures, failures[:5]
    # Work sharing: strictly fewer executions than requests, and the
    # METRICS registry (the observable contract) agrees.
    assert counters["requests"] == n_threads * waves
    assert counters["executions"] < counters["requests"]
    assert counters["coalesced"] > 0
    snap = METRICS.as_dict()["counters"]
    assert snap["serve.coalesced_requests"] > 0
    assert snap["serve.executions"] < snap["serve.requests"]
    assert snap["serve.executions"] + snap["serve.coalesced_requests"] == (
        snap["serve.requests"]
    )


def test_single_request_matches_serial_uncached_execution():
    table = _table()
    spec = SortSpec.of("B", "A", "D")
    rows, ovcs = _serial_uncached(table, spec)
    with OrderService(ExecutionConfig(cache="off")) as svc:
        resp = svc.order_by(table, spec)
    assert resp.table.rows == rows
    assert resp.table.ovcs == ovcs
    assert not hasattr(resp, "stats")  # a response is rows and codes
    assert resp.coalesced is False
    assert resp.label == "full-sort"


# ---------------------------------------------- deterministic coalescing


class _FrozenSort:
    """Stand-in Sort whose execution blocks until released."""

    started = None  # type: threading.Event
    release = None  # type: threading.Event
    executed: list = []

    def __init__(self, child, spec, config=None):
        self._child = child
        self._spec = spec
        self.order_strategy = "frozen"

    def _answer(self):  # the output, and no install to run
        type(self).started.set()
        assert type(self).release.wait(timeout=30), "never released"
        type(self).executed.append(",".join(str(c) for c in self._spec.columns))
        return self._child.source, None


def _frozen(monkeypatch):
    _FrozenSort.started = threading.Event()
    _FrozenSort.release = threading.Event()
    _FrozenSort.executed = []
    monkeypatch.setattr(service_mod, "Sort", _FrozenSort)
    return _FrozenSort


class _Scan:
    def __init__(self, table):
        self.source = table


def test_duplicates_coalesce_onto_one_execution(monkeypatch):
    frozen = _frozen(monkeypatch)
    monkeypatch.setattr(service_mod, "TableScan", _Scan)
    table = _table(50)
    spec = SortSpec.of("B", "A")
    cfg = ExecutionConfig(service_threads=1, service_queue_depth=8)
    with OrderService(cfg) as svc:
        blocker = svc.submit(_table(50, seed=9), SortSpec.of("A",))
        assert frozen.started.wait(timeout=10)  # worker now occupied
        tickets = [svc.submit(table, spec) for _ in range(4)]
        # First submit created the in-flight entry; the other three
        # attached to it without consuming queue slots or executions.
        assert [t.coalesced for t in tickets] == [False, True, True, True]
        assert svc.counters()["coalesced"] == 3
        frozen.release.set()
        responses = [t.result(timeout=30) for t in tickets]
        blocker.result(timeout=30)

    # One execution answered all four waiters with its own table.
    assert frozen.executed.count("B,A") == 1
    for resp in responses:
        assert resp.table is responses[0].table
        assert resp.label == "frozen"
    assert [r.coalesced for r in responses] == [False, True, True, True]


def test_completed_entries_leave_the_registry(monkeypatch):
    frozen = _frozen(monkeypatch)
    monkeypatch.setattr(service_mod, "TableScan", _Scan)
    frozen.release.set()  # executions run through immediately
    table = _table(50)
    with OrderService(ExecutionConfig(service_threads=1)) as svc:
        svc.order_by(table, "A")
        svc.order_by(table, "A")
        counters = svc.counters()
    # Sequential identical requests re-execute (the order cache, not
    # the in-flight registry, handles sequential repeats).
    assert counters["executions"] == 2
    assert counters["coalesced"] == 0
    assert counters["inflight"] == 0


# ------------------------------------------------------------- overload


def test_full_queue_rejects_immediately_without_deadlock(monkeypatch):
    METRICS.enable(clear=True)
    frozen = _frozen(monkeypatch)
    monkeypatch.setattr(service_mod, "TableScan", _Scan)
    cfg = ExecutionConfig(service_threads=1, service_queue_depth=1)
    with OrderService(cfg) as svc:
        first = svc.submit(_table(40, seed=1), SortSpec.of("A",))
        assert frozen.started.wait(timeout=10)  # dequeued, executing
        second = svc.submit(_table(40, seed=2), SortSpec.of("A",))  # fills queue
        start = time.monotonic()
        with pytest.raises(ServiceOverloadError, match="queue full"):
            svc.submit(_table(40, seed=3), SortSpec.of("A",))
        assert time.monotonic() - start < 5  # immediate, not a deadlock
        # A duplicate of an admitted key still coalesces — sharing an
        # in-flight execution needs no queue slot.
        dup = svc.submit(_table(40, seed=2), SortSpec.of("A",))
        assert dup.coalesced is True
        frozen.release.set()
        first.result(timeout=30)
        second.result(timeout=30)
        dup.result(timeout=30)
        counters = svc.counters()
    assert counters["rejected"] == 1
    assert METRICS.as_dict()["counters"]["serve.rejected_overload"] == 1


# ------------------------------------------------------------- deadlines


def test_queued_request_past_deadline_is_skipped(monkeypatch):
    METRICS.enable(clear=True)
    frozen = _frozen(monkeypatch)
    monkeypatch.setattr(service_mod, "TableScan", _Scan)
    cfg = ExecutionConfig(service_threads=1, service_queue_depth=8)
    with OrderService(cfg) as svc:
        blocker = svc.submit(_table(40, seed=1), SortSpec.of("A",))
        assert frozen.started.wait(timeout=10)
        doomed = svc.submit(
            _table(40, seed=2), SortSpec.of("A",), deadline_ms=30
        )
        time.sleep(0.08)  # let the deadline lapse while still queued
        frozen.release.set()
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=30)
        blocker.result(timeout=30)
        counters = svc.counters()
    # The expired entry was never executed — deadline misses shed work:
    # only the blocker ran.
    assert frozen.executed == ["A"]
    assert counters["deadline_exceeded"] == 1
    assert counters["executions"] == 1
    assert METRICS.as_dict()["counters"]["serve.deadline_exceeded"] == 1


def test_waiter_deadline_while_execution_runs(monkeypatch):
    frozen = _frozen(monkeypatch)
    monkeypatch.setattr(service_mod, "TableScan", _Scan)
    with OrderService(ExecutionConfig(service_threads=1)) as svc:
        ticket = svc.submit(_table(40), SortSpec.of("A",), deadline_ms=40)
        assert frozen.started.wait(timeout=10)
        with pytest.raises(DeadlineExceededError):
            ticket.result()  # blocks at most ~40ms, then gives up
        frozen.release.set()
    assert svc.counters()["deadline_exceeded"] == 1


def test_coalesced_waiter_extends_the_entry_deadline(monkeypatch):
    frozen = _frozen(monkeypatch)
    monkeypatch.setattr(service_mod, "TableScan", _Scan)
    table = _table(40)
    cfg = ExecutionConfig(service_threads=1, service_queue_depth=8)
    with OrderService(cfg) as svc:
        blocker = svc.submit(_table(40, seed=5), SortSpec.of("A",))
        assert frozen.started.wait(timeout=10)
        short = svc.submit(table, SortSpec.of("B",), deadline_ms=30)
        patient = svc.submit(table, SortSpec.of("B",))  # no deadline
        time.sleep(0.08)
        frozen.release.set()
        # The entry survived the short waiter's deadline because the
        # patient waiter still wants the result.
        resp = patient.result(timeout=30)
        assert resp.coalesced is True
        with pytest.raises(DeadlineExceededError):
            short.result(timeout=30)
        blocker.result(timeout=30)


@pytest.mark.parametrize("deadline_ms", [float("nan"), float("inf"), 0, -5])
def test_submit_rejects_a_deadline_that_is_not_finite_and_positive(
    deadline_ms,
):
    # NaN compares false with everything, so unchecked it reads as "no
    # deadline"; infinity overflows the wait.  Both are errors at submit,
    # before the request counts or takes a queue slot.
    with OrderService(ExecutionConfig(service_threads=1)) as svc:
        with pytest.raises(ValueError, match="deadline_ms"):
            svc.submit(_table(40), SortSpec.of("B",), deadline_ms=deadline_ms)
        assert svc.counters()["requests"] == 0


# -------------------------------------------------------------- fairness


def test_tenant_fair_dequeue_order(monkeypatch):
    frozen = _frozen(monkeypatch)
    monkeypatch.setattr(service_mod, "TableScan", _Scan)
    cfg = ExecutionConfig(service_threads=1, service_queue_depth=16)
    with OrderService(cfg) as svc:
        blocker = svc.submit(_table(40, seed=9), SortSpec.of("A",))
        assert frozen.started.wait(timeout=10)
        # Tenant "hog" floods four distinct orders; "meek" adds one.
        hog = [
            svc.submit(_table(40, seed=10 + i), SortSpec.of("A",),
                       tenant="hog")
            for i in range(4)
        ]
        meek = svc.submit(_table(40, seed=20), SortSpec.of("B",),
                          tenant="meek")
        frozen.release.set()
        for t in [blocker, meek, *hog]:
            t.result(timeout=30)
    # The meek tenant's single request ran after at most one hog
    # request — round-robin, not arrival order.
    assert frozen.executed.index("B") <= 2


# ------------------------------------------------------ errors & close


class _FailingSort:
    def __init__(self, child, spec, config=None):
        raise ValueError("synthetic execution failure")


def test_execution_error_propagates_to_every_waiter(monkeypatch):
    monkeypatch.setattr(service_mod, "Sort", _FailingSort)
    monkeypatch.setattr(service_mod, "TableScan", _Scan)
    with OrderService(ExecutionConfig(service_threads=1)) as svc:
        with pytest.raises(ValueError, match="synthetic"):
            svc.order_by(_table(40), "A", timeout=30)
        assert svc.counters()["errors"] == 1


def test_closed_service_rejects_submits():
    svc = OrderService(ExecutionConfig(service_threads=1))
    svc.close()
    with pytest.raises(ServiceClosedError):
        svc.submit(_table(40), SortSpec.of("A",))
    svc.close()  # idempotent


def test_close_drains_admitted_work(monkeypatch):
    frozen = _frozen(monkeypatch)
    monkeypatch.setattr(service_mod, "TableScan", _Scan)
    svc = OrderService(ExecutionConfig(service_threads=1,
                                       service_queue_depth=8))
    first = svc.submit(_table(40, seed=1), SortSpec.of("A",))
    assert frozen.started.wait(timeout=10)
    second = svc.submit(_table(40, seed=2), SortSpec.of("A",))
    frozen.release.set()
    svc.close()  # default drain=True: admitted work completes
    assert first.result(timeout=1).table is not None
    assert second.result(timeout=1).table is not None


def test_close_without_drain_fails_queued_waiters(monkeypatch):
    frozen = _frozen(monkeypatch)
    monkeypatch.setattr(service_mod, "TableScan", _Scan)
    svc = OrderService(ExecutionConfig(service_threads=1,
                                       service_queue_depth=8))
    running = svc.submit(_table(40, seed=1), SortSpec.of("A",))
    assert frozen.started.wait(timeout=10)
    queued = svc.submit(_table(40, seed=2), SortSpec.of("A",))
    frozen.release.set()
    svc.close(drain=False)
    running.result(timeout=30)  # in-flight execution still completes
    with pytest.raises(ServiceClosedError):
        queued.result(timeout=30)


def test_warm_hit_runs_no_per_row_pass(monkeypatch):
    """The saving is structural: a repeat request over an unchanged
    table on a warm cache fingerprints no row — and the first request
    fingerprints exactly once.  No request sizes a row: the service
    keeps no byte ledger."""
    import repro.cache.fingerprint as fp_mod
    import repro.storage.pages as pages_mod

    passes, sized = [], []
    real_fp, real_size = fp_mod.fingerprint_rows, pages_mod.row_size_bytes
    monkeypatch.setattr(
        fp_mod, "fingerprint_rows",
        lambda rows, cols: passes.append(len(rows)) or real_fp(rows, cols),
    )
    monkeypatch.setattr(
        pages_mod, "row_size_bytes",
        lambda row: sized.append(1) or real_size(row),
    )
    METRICS.enable(clear=True)
    table = _table(300)
    spec = SortSpec.of("B", "A", "C", "D")
    cfg = ExecutionConfig(cache="on", service_threads=1)
    with OrderService(cfg) as svc:
        cold = svc.order_by(table, spec)
        assert cold.label == "full-sort"
        assert passes == [300] and sized == []
        for _ in range(3):
            warm = svc.order_by(table, spec)
            assert warm.label == "cache-hit(B,A,C,D)"
            assert (warm.table.rows, warm.table.ovcs) == \
                (cold.table.rows, cold.table.ovcs)
        assert passes == [300] and sized == []
    assert METRICS.as_dict()["counters"]["cache.fingerprint_passes"] == 1


@pytest.mark.parametrize("cache", ["off", "on"])
def test_responses_alias_neither_cache_nor_source(cache):
    """A response may share the cache's or the source's sequences, but
    nobody can change it, so it can change neither."""
    table = _table(200)
    rows = table.rows
    spec = SortSpec.of("C", "A")
    want_rows, want_ovcs = _serial_uncached(table, spec)
    cfg = ExecutionConfig(cache=cache, service_threads=1)
    with OrderService(cfg) as svc:
        for _round in range(3):
            resp = svc.order_by(table, spec)
            assert resp.table.rows == want_rows
            assert resp.table.ovcs == want_ovcs
            _assert_valid(resp, table)
            _scribble(resp.table)
            assert table.rows is rows


def test_health_reflects_rejections(monkeypatch):
    frozen = _frozen(monkeypatch)
    monkeypatch.setattr(service_mod, "TableScan", _Scan)
    cfg = ExecutionConfig(service_threads=1, service_queue_depth=1)
    with OrderService(cfg) as svc:
        assert svc.health()["status"] == "ok"
        first = svc.submit(_table(40, seed=1), SortSpec.of("A",))
        assert frozen.started.wait(timeout=10)
        second = svc.submit(_table(40, seed=2), SortSpec.of("A",))
        with pytest.raises(ServiceOverloadError):
            svc.submit(_table(40, seed=3), SortSpec.of("A",))
        assert svc.health()["status"] == "degraded"
        frozen.release.set()
        first.result(timeout=30)
        second.result(timeout=30)


# ------------------------------------------------------- hits at submit


def _oracle(table, spec):
    """Stable ``sorted()`` plus freshly derived codes."""
    pos = spec.positions(table.schema)
    rows = sorted(table.rows, key=lambda r: tuple(r[p] for p in pos))
    return tuple(rows), tuple(derive_ovcs(rows, pos))


def _assert_oracle(resp, table, spec):
    _assert_valid(resp, table)
    assert (resp.table.rows, resp.table.ovcs) == _oracle(table, spec)


def _block_worker(svc):
    """Make the service's executions wait on a gate; returns
    ``(gate, started)``.  Patching the instance reaches every
    scheduler thread, which looks ``_execute`` up per entry."""
    gate, started = threading.Event(), threading.Event()
    execute = svc._execute

    def _blocked(entry):
        started.set()
        assert gate.wait(timeout=30), "never released"
        execute(entry)

    svc._execute = _blocked
    return gate, started


def test_hit_is_answered_at_submit_while_the_only_worker_is_busy():
    table = _table(300)
    warm_spec, cold_spec = SortSpec.of("B", "A"), SortSpec.of("C", "D")
    cfg = ExecutionConfig(cache="on", service_threads=1)
    with OrderService(cfg) as svc:
        svc.order_by(table, warm_spec)  # executes and installs
        gate, started = _block_worker(svc)
        cold = svc.submit(table, cold_spec)
        assert started.wait(timeout=10)  # the only worker is now held
        warm = svc.submit(table, warm_spec)
        assert warm.done and not cold.done
        resp = warm.result(timeout=0.5)
        gate.set()
        cold_resp = cold.result(timeout=30)
        counters = svc.counters()
    assert resp.label == "cache-hit(B,A)"
    assert resp.coalesced is False
    _assert_oracle(resp, table, warm_spec)
    assert cold_resp.label == "full-sort"
    _assert_oracle(cold_resp, table, cold_spec)
    assert counters["cache_hits"] == 1
    assert counters["executions"] == 2


def test_hit_needs_no_queue_slot():
    table = _table(300)
    warm_spec = SortSpec.of("B", "A")
    cfg = ExecutionConfig(cache="on", service_threads=1,
                          service_queue_depth=1)
    with OrderService(cfg) as svc:
        svc.order_by(table, warm_spec)
        gate, started = _block_worker(svc)
        running = svc.submit(table, SortSpec.of("C", "D"))
        assert started.wait(timeout=10)
        queued = svc.submit(table, SortSpec.of("D", "C"))  # fills the queue
        warm = svc.submit(table, warm_spec)
        with pytest.raises(ServiceOverloadError):
            svc.submit(table, SortSpec.of("A", "D"))
        assert warm.done
        resp = warm.result(timeout=0.5)
        gate.set()
        running.result(timeout=30)
        queued.result(timeout=30)
        counters = svc.counters()
    _assert_oracle(resp, table, warm_spec)
    assert counters["rejected"] == 1
    assert counters["cache_hits"] == 1


def test_mutating_a_hit_response_leaves_the_next_hit_unchanged():
    table = _table(300)
    spec = SortSpec.of("C", "A")
    want = _oracle(table, spec)
    with OrderService(ExecutionConfig(cache="on", service_threads=1)) as svc:
        svc.order_by(table, spec)
        first = svc.order_by(table, spec)
        assert first.label == "cache-hit(C,A)"
        _scribble(first.table)
        second = svc.order_by(table, spec)
    assert second.label == "cache-hit(C,A)"
    assert (second.table.rows, second.table.ovcs) == want


def test_each_hit_at_submit_logs_one_cache_serve_event(tmp_path):
    """One ``cache.serve`` event per hit, naming the entry state it was
    answered from."""
    import json

    from repro.cache import configure_cache
    from repro.obs import LOG

    table = _table(300)
    spec = SortSpec.of("B", "A")
    for budget, state in ((None, "memo"), (1, "flat")):
        log = tmp_path / f"{state}.jsonl"
        configure_cache(budget=budget, spill_dir=str(tmp_path))
        cfg = ExecutionConfig(cache="on", service_threads=1)
        with OrderService(cfg) as svc:
            svc.order_by(table, spec)  # executes and installs
            LOG.enable(str(log))
            try:
                for _ in range(3):
                    resp = svc.order_by(table, spec)
                    assert resp.label == "cache-hit(B,A)"
                    _assert_oracle(resp, table, spec)
            finally:
                LOG.disable()
            counters = svc.counters()
        assert counters["requests"] - 1 == counters["cache_hits"] == 3
        events = [json.loads(line) for line in log.read_text().splitlines()]
        served = [e for e in events if e["event"] == "cache.serve"]
        assert [(e["decision"], e["order"], e["entry"]) for e in served] == \
            [("hit", "B,A", state)] * 3


def test_all_hit_run_counts_every_request_as_a_hit():
    """Each hit counts one request, one service hit and one cache hit,
    and on the quiesced service every request is accounted for."""
    from repro.cache import get_cache

    tables = [_table(300, seed=1), _table(300, seed=2)]
    specs = [SortSpec.of("B", "A"), SortSpec.of("C", "D")]
    counted = ("requests", "cache_hits", "executions", "coalesced")
    with OrderService(ExecutionConfig(cache="on", service_threads=2)) as svc:
        for t in tables:
            for spec in specs:
                svc.order_by(t, spec)
        warm = svc.counters()
        for _ in range(5):
            for t in tables:
                for spec in specs:
                    before = svc.counters(), get_cache().counters()
                    resp = svc.order_by(t, spec)
                    after = svc.counters(), get_cache().counters()
                    assert resp.label == f"cache-hit({spec.label})"
                    assert [after[0][k] - before[0][k] for k in counted] \
                        == [1, 1, 0, 0]
                    assert after[1]["hits"] - before[1]["hits"] == 1
                    assert after[1]["misses"] == before[1]["misses"]
                    _assert_oracle(resp, t, spec)
        done = svc.counters()
    assert done["requests"] - warm["requests"] == 20
    assert done["cache_hits"] - warm["cache_hits"] == 20
    assert done["executions"] == warm["executions"] == 4
    assert done["requests"] == (
        done["cache_hits"] + done["executions"] + done["coalesced"]
    )


def test_each_request_counts_one_cache_lookup_outcome():
    from repro.cache import get_cache

    tables = [_table(300, seed=1), _table(300, seed=2)]
    specs = [SortSpec.of("B", "A"), SortSpec.of("C", "D"),
             SortSpec.of("A", "C"), SortSpec.of("B", "D")]
    # Cold, warm and modify-from-cache requests, interleaved.
    mix = [(t, s) for _ in range(3) for t in (0, 1) for s in specs]
    mix += [(0, SortSpec.of("D", "B")), (1, SortSpec.of("A", "B"))]
    with OrderService(ExecutionConfig(cache="on", service_threads=2)) as svc:
        for i, (t, spec) in enumerate(mix):
            resp = svc.order_by(tables[t], spec)
            _assert_oracle(resp, tables[t], spec)
            cache = get_cache().counters()
            assert cache["hits"] + cache["misses"] == i + 1
        counters = svc.counters()
    assert counters["cache_hits"] == cache["hits"] > 0
    assert cache["misses"] == counters["executions"] > 0


def test_a_source_that_satisfies_the_order_is_not_probed():
    """Sort passes such a source through without asking the cache, so
    the probe at submit must not ask it either."""
    spec = SortSpec.of("A", "B", "C", "D")
    table = Sort(TableScan(_table(200)), spec,
                 config=ExecutionConfig(cache="off")).to_table()
    with OrderService(ExecutionConfig(cache="on", service_threads=1)) as svc:
        for _ in range(2):
            resp = svc.order_by(table, SortSpec.of("A", "B"))
            assert resp.label == "passthrough"
        counters = svc.counters()
    from repro.cache import get_cache

    assert get_cache() is None  # nothing ever asked for one
    assert counters["cache_hits"] == 0 and counters["executions"] == 2


def test_requests_are_hits_executions_or_coalesced():
    from repro.serve import default_orders, run_load

    METRICS.enable(clear=True)
    table = _table(400)
    cfg = ExecutionConfig(cache="on", service_threads=2,
                          service_queue_depth=64)
    with OrderService(cfg) as svc:
        run_load(svc, table, default_orders(table, 4),
                 threads=8, requests_per_thread=4)
        counters = svc.counters()
        health = svc.health()
    assert counters["requests"] == 32
    assert counters["rejected"] == counters["errors"] == 0
    assert counters["deadline_exceeded"] == 0
    assert counters["cache_hits"] > 0
    assert counters["requests"] == (
        counters["cache_hits"] + counters["executions"]
        + counters["coalesced"]
    )
    assert health["cache_hits"] == counters["cache_hits"]
    snap = METRICS.as_dict()["counters"]
    assert snap["serve.cache_hits"] == counters["cache_hits"]
    assert snap["serve.requests"] == (
        snap["serve.cache_hits"] + snap["serve.executions"]
        + snap.get("serve.coalesced_requests", 0)
    )


# ------------------------------------------- answered before installed


def _hold_installs(monkeypatch, fail_first=False):
    """Make ``OrderCache.install`` wait on ``held.release``;
    ``held.entered`` is set once an install is waiting.  With
    ``fail_first`` the first install raises instead of installing."""
    from repro.cache import OrderCache

    real = OrderCache.install
    held = SimpleNamespace(
        entered=threading.Event(), release=threading.Event(), calls=[],
    )

    def install(self, *args, **kwargs):
        held.calls.append(1)
        held.entered.set()
        assert held.release.wait(timeout=30), "install never released"
        if fail_first and len(held.calls) == 1:
            raise RuntimeError("synthetic install failure")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(OrderCache, "install", install)
    return held


def _in_thread(fn, *args):
    """Run ``fn(*args)`` on a thread; returns ``(thread, results)``."""
    results: list = []
    thread = threading.Thread(target=lambda: results.append(fn(*args)))
    thread.start()
    return thread, results


def test_waiters_are_answered_before_the_install(monkeypatch):
    table, spec = _table(300), SortSpec.of("B", "A")
    held = _hold_installs(monkeypatch)
    cfg = ExecutionConfig(cache="on", service_threads=1)
    with OrderService(cfg) as svc:
        try:
            gate, started = _block_worker(svc)
            leader = svc.submit(table, spec)
            assert started.wait(timeout=10)
            duplicate = svc.submit(table, spec)  # before publication
            assert duplicate.coalesced
            gate.set()
            assert held.entered.wait(timeout=10)
            # Both answered while the install is still held.
            for ticket in (leader, duplicate):
                resp = ticket.result(timeout=10)
                assert resp.label == "full-sort"
                _assert_oracle(resp, table, spec)
            assert svc.counters()["inflight"] == 1  # answered, installing
            # A repeat now waits for the install, then hits.
            thread, results = _in_thread(svc.order_by, table, spec)
            thread.join(timeout=0.3)
            assert thread.is_alive() and not results
        finally:
            held.release.set()
        thread.join(timeout=10)
        assert results[0].label == "cache-hit(B,A)"
        _assert_oracle(results[0], table, spec)
        counters = svc.counters()
    assert len(held.calls) == 1
    assert counters["executions"] == 1
    assert counters["requests"] == 3
    assert counters["requests"] == (
        counters["cache_hits"] + counters["executions"]
        + counters["coalesced"]
    )
    assert counters["inflight"] == 0


def test_a_failed_install_releases_its_waiters(monkeypatch):
    table, spec = _table(300), SortSpec.of("C", "A")
    held = _hold_installs(monkeypatch, fail_first=True)
    cfg = ExecutionConfig(cache="on", service_threads=1)
    with OrderService(cfg) as svc:
        try:
            first = svc.order_by(table, spec, timeout=10)
            assert first.label == "full-sort"
            assert held.entered.wait(timeout=10)
            thread, results = _in_thread(svc.order_by, table, spec)
            thread.join(timeout=0.3)
            assert thread.is_alive()
        finally:
            held.release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        # Nothing was installed: the waiter executed anew, and that
        # execution's install went through.
        assert results[0].label == "full-sort"
        _assert_oracle(results[0], table, spec)
        again = svc.order_by(table, spec, timeout=10)
        assert again.label == "cache-hit(C,A)"
        counters = svc.counters()
    assert len(held.calls) == 2
    assert counters["errors"] == 1
    assert counters["executions"] == 2 and counters["cache_hits"] == 1
    assert counters["inflight"] == 0


def test_a_passthrough_request_waits_out_an_install_of_its_rows(
    monkeypatch,
):
    """The same rows declared sorted pass the order through and are
    never probed; an execution of them declared unsorted is installing
    under the same key.  The pass-through request waits for it, then
    runs its own pass-through."""
    from dataclasses import replace

    spec = SortSpec.of("A", "B")
    ordered = Sort(TableScan(_table(300)), SortSpec.of("A", "B", "C", "D"),
                   config=ExecutionConfig(cache="off")).to_table()
    unordered = replace(ordered, sort_spec=None, ovcs=None)
    held = _hold_installs(monkeypatch)
    with OrderService(ExecutionConfig(cache="on", service_threads=1)) as svc:
        try:
            assert svc.order_by(unordered, spec).label == "full-sort"
            assert held.entered.wait(timeout=10)
            thread, results = _in_thread(svc.order_by, ordered, spec)
            thread.join(timeout=0.3)
            assert thread.is_alive()
        finally:
            held.release.set()
        thread.join(timeout=10)
        assert results[0].label == "passthrough"
        _assert_oracle(results[0], ordered, spec)
        counters = svc.counters()
    assert counters["executions"] == 2 and counters["inflight"] == 0


def test_close_waits_for_a_held_install(monkeypatch, tmp_path):
    from repro.cache import configure_cache, fingerprint_table, get_cache

    configure_cache(spill_dir=str(tmp_path))
    table, spec = _table(300), SortSpec.of("D", "B")
    held = _hold_installs(monkeypatch)
    svc = OrderService(ExecutionConfig(cache="on", service_threads=1))
    try:
        svc.order_by(table, spec, timeout=10)
        assert held.entered.wait(timeout=10)
        closer, _ = _in_thread(svc.close)
        closer.join(timeout=0.3)
        assert closer.is_alive()  # close() waits for the install
    finally:
        held.release.set()
    closer.join(timeout=10)
    assert not closer.is_alive() and svc.closed
    cache = get_cache()
    entries = cache.candidates(fingerprint_table(table))
    assert [entry.spec for entry in entries] == [spec]
    assert cache.accountant.used == sum(entry.nbytes for entry in entries)
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


def test_a_default_service_holds_the_process_default(monkeypatch):
    """``OrderService()`` takes :meth:`ExecutionConfig.default`, which
    reads the environment once: a variable set since changes nothing
    until ``ExecutionConfig.default.cache_clear()``."""
    default = ExecutionConfig.default()
    monkeypatch.setenv("REPRO_CACHE", "on" if default.cache == "off" else "off")
    svc = OrderService()
    try:
        assert svc.config is default
        assert ExecutionConfig.default() is default
    finally:
        svc.close()


def test_a_deadline_bounds_the_wait_for_an_install(monkeypatch):
    """A request that finds its order answered but still installing
    waits for the install no longer than its deadline."""
    table, spec = _table(300), SortSpec.of("A", "D")
    held = _hold_installs(monkeypatch)
    METRICS.enable(clear=True)
    with OrderService(ExecutionConfig(cache="on", service_threads=1)) as svc:
        try:
            svc.order_by(table, spec, timeout=10)
            assert held.entered.wait(timeout=10)
            start = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                svc.submit(table, spec, deadline_ms=50)
            assert time.monotonic() - start < 0.5
        finally:
            held.release.set()
    counters = svc.counters()  # closed: the install has run
    assert counters["deadline_exceeded"] == 1
    assert METRICS.as_dict()["counters"]["serve.deadline_exceeded"] == 1
    assert counters["executions"] == 1 and counters["inflight"] == 0
    assert svc.health()["status"] == "degraded"


# ------------------------------------------- misses on the caller's thread


def _record_kernels(monkeypatch, hold=()):
    """Wrap the kernel a ``Sort`` miss runs (from the source or from a
    cached order): ``kernels.threads`` gets the calling thread's ident
    per call and ``kernels.peak`` the most calls running at once.  The
    calls numbered in ``hold`` (from 1) set ``kernels.entered`` and
    wait for ``kernels.release``."""
    import repro.cache.dispatch as dispatch
    import repro.engine.sort_op as sort_op

    real = sort_op.enforce_order
    lock = threading.Lock()
    kernels = SimpleNamespace(
        threads=[], running=0, peak=0,
        entered=threading.Event(), release=threading.Event(),
    )

    def recorded(*args, **kwargs):
        with lock:
            kernels.threads.append(threading.get_ident())
            n = len(kernels.threads)
            kernels.running += 1
            kernels.peak = max(kernels.peak, kernels.running)
        try:
            if n in hold:
                kernels.entered.set()
                assert kernels.release.wait(timeout=30), "never released"
            else:
                time.sleep(0.005)  # long enough for callers to overlap
            return real(*args, **kwargs)
        finally:
            with lock:
                kernels.running -= 1

    monkeypatch.setattr(sort_op, "enforce_order", recorded)
    monkeypatch.setattr(dispatch, "enforce_order", recorded)
    return kernels


def test_a_blocking_miss_runs_on_the_callers_thread(monkeypatch):
    kernels = _record_kernels(monkeypatch)
    table, spec = _table(300), SortSpec.of("B", "C")
    with OrderService(ExecutionConfig(cache="on", service_threads=2)) as svc:
        resp = svc.order_by(table, spec)
        again = svc.order_by(table, spec)
        counters = svc.counters()
    assert kernels.threads == [threading.get_ident()]
    assert resp.label == "full-sort" and again.label == "cache-hit(B,C)"
    _assert_oracle(resp, table, spec)
    _assert_oracle(again, table, spec)
    assert counters["executions"] == 1 and counters["cache_hits"] == 1


def test_an_inline_miss_returns_before_its_install(monkeypatch):
    kernels = _record_kernels(monkeypatch)
    held = _hold_installs(monkeypatch)
    table, spec = _table(300), SortSpec.of("C", "B")
    with OrderService(ExecutionConfig(cache="on", service_threads=1)) as svc:
        try:
            resp = svc.order_by(table, spec)  # returns, install held
            assert held.entered.wait(timeout=10)
            assert kernels.threads == [threading.get_ident()]
            assert svc.counters()["inflight"] == 1
            time.sleep(0.05)
            assert svc.counters()["inflight"] == 1
        finally:
            held.release.set()
        again = svc.order_by(table, spec)
        counters = svc.counters()
    _assert_oracle(resp, table, spec)
    assert again.label == "cache-hit(C,B)"
    assert counters["inflight"] == 0 and len(held.calls) == 1


def test_a_duplicate_coalesces_onto_an_inline_execution(monkeypatch):
    kernels = _record_kernels(monkeypatch, hold={1})
    table, spec = _table(300), SortSpec.of("D", "A")
    with OrderService(ExecutionConfig(cache="on", service_threads=2)) as svc:
        try:
            caller, results = _in_thread(svc.order_by, table, spec)
            assert kernels.entered.wait(timeout=10)
            duplicate = svc.submit(table, spec)
            assert duplicate.coalesced and not duplicate.done
        finally:
            kernels.release.set()
        caller.join(timeout=10)
        resp = duplicate.result(timeout=10)
        counters = svc.counters()
    assert len(kernels.threads) == 1 and kernels.threads[0] == caller.ident
    assert resp.table is results[0].table
    _assert_oracle(resp, table, spec)
    assert counters["executions"] == 1 and counters["coalesced"] == 1


def test_a_duplicate_during_an_inline_install_is_a_hit(monkeypatch):
    kernels = _record_kernels(monkeypatch)
    held = _hold_installs(monkeypatch)
    table, spec = _table(300), SortSpec.of("A", "C")
    with OrderService(ExecutionConfig(cache="on", service_threads=2)) as svc:
        try:
            first = svc.order_by(table, spec)
            assert held.entered.wait(timeout=10)
            waiter, results = _in_thread(svc.submit, table, spec)
            waiter.join(timeout=0.3)
            assert waiter.is_alive()  # waits for the install
        finally:
            held.release.set()
        waiter.join(timeout=10)
        resp = results[0].result(timeout=10)
        counters = svc.counters()
    assert first.label == "full-sort" and resp.label == "cache-hit(A,C)"
    _assert_oracle(resp, table, spec)
    assert kernels.threads == [threading.get_ident()]
    assert counters["executions"] == 1 and counters["cache_hits"] == 1


@pytest.mark.parametrize("how", ["timeout", "deadline", "cache-off", "submit"])
def test_other_requests_execute_on_a_scheduler_thread(monkeypatch, how):
    kernels = _record_kernels(monkeypatch)
    table, spec = _table(300), SortSpec.of("B", "D")
    cfg = ExecutionConfig(cache="off" if how == "cache-off" else "on",
                          service_threads=2)
    with OrderService(cfg) as svc:
        if how == "timeout":
            resp = svc.order_by(table, spec, timeout=10)
        elif how == "deadline":
            resp = svc.order_by(table, spec, deadline_ms=10_000)
        elif how == "submit":
            resp = svc.submit(table, spec).result(timeout=10)
        else:
            resp = svc.order_by(table, spec)
        scheduler = {t.ident for t in svc._threads}
    _assert_oracle(resp, table, spec)
    assert len(kernels.threads) == 1 and kernels.threads[0] in scheduler


def test_a_miss_without_a_free_slot_queues(monkeypatch):
    """With one slot, held by a gated inline caller, a second blocking
    miss is queued and runs on the scheduler thread once the slot is
    free: one kernel at a time."""
    kernels = _record_kernels(monkeypatch, hold={1})
    table, other = _table(300), _table(300, seed=1)
    first_spec, second_spec = SortSpec.of("C", "D"), SortSpec.of("D", "C")
    with OrderService(ExecutionConfig(cache="on", service_threads=1)) as svc:
        try:
            first, first_out = _in_thread(svc.order_by, table, first_spec)
            assert kernels.entered.wait(timeout=10)
            second, second_out = _in_thread(svc.order_by, other, second_spec)
            deadline = time.monotonic() + 10
            while svc.counters()["queued"] == 0:
                assert time.monotonic() < deadline, "never queued"
                time.sleep(0.001)
            assert len(kernels.threads) == 1
        finally:
            kernels.release.set()
        first.join(timeout=10)
        second.join(timeout=10)
        scheduler = svc._threads[0].ident
    assert kernels.threads == [first.ident, scheduler]
    assert kernels.peak == 1
    _assert_oracle(first_out[0], table, first_spec)
    _assert_oracle(second_out[0], other, second_spec)


@pytest.mark.parametrize("threads", [1, 2])
def test_slots_bound_kernels_on_both_paths(monkeypatch, threads):
    """Six clients mixing inline and queued misses under a short switch
    interval: never more kernels at once than slots, and every slot
    given back."""
    kernels = _record_kernels(monkeypatch)
    tables = [_table(300, seed=s) for s in range(3)]
    specs = [SortSpec.of("A", "B"), SortSpec.of("B", "A"),
             SortSpec.of("C", "D"), SortSpec.of("D", "C")]
    svc = OrderService(ExecutionConfig(cache="on", service_threads=threads))

    failures: list = []

    def _client(i):
        for j, spec in enumerate(specs):
            table = tables[(i + j) % len(tables)]
            try:
                if (i + j) % 2:
                    resp = svc.order_by(table, spec)
                else:
                    resp = svc.submit(table, spec).result(timeout=30)
                _assert_oracle(resp, table, spec)
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(repr(exc))

    clients = [threading.Thread(target=_client, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        svc.close()
    counters = svc.counters()
    assert not any(client.is_alive() for client in clients)
    assert not failures, failures[:3]
    assert 1 <= kernels.peak <= threads
    assert counters["errors"] == counters["rejected"] == 0
    assert counters["requests"] == 24 == (
        counters["cache_hits"] + counters["executions"]
        + counters["coalesced"]
    )
    assert svc._executing == 0 and counters["inflight"] == 0
    assert svc._queue._free == threads


@pytest.mark.parametrize("drain", [True, False])
def test_close_retires_an_install_handed_off_by_a_caller(monkeypatch, drain):
    kernels = _record_kernels(monkeypatch)
    held = _hold_installs(monkeypatch)
    table, spec = _table(300), SortSpec.of("D", "B")
    svc = OrderService(ExecutionConfig(cache="on", service_threads=1))
    try:
        resp = svc.order_by(table, spec)
        assert kernels.threads == [threading.get_ident()]
        assert held.entered.wait(timeout=10)
        waiter, results = _in_thread(svc.order_by, table, spec)
        waiter.join(timeout=0.2)
        assert waiter.is_alive()  # waits for the install
        closer, _ = _in_thread(svc.close, drain)
        closer.join(timeout=0.3)
        assert closer.is_alive()  # close() waits for the install
    finally:
        held.release.set()
    closer.join(timeout=10)
    waiter.join(timeout=10)
    assert not closer.is_alive() and not waiter.is_alive()
    _assert_oracle(resp, table, spec)
    assert results[0].label == "cache-hit(D,B)"
    assert svc.counters()["inflight"] == 0 and len(held.calls) == 1
