"""Micro-batching in the serving layer (``plan_window_ms``).

With a window set, a scheduler thread takes its first dequeue plus
whatever is already queued behind it (it holds nothing; the window only
bounds the drain), then runs every drained request exactly as a solo
one.  The contract under test: every response stays bit-identical (rows
and codes) to the unbatched path, each order is answered as soon as it
is derived and its waiters are handed the interpreter at once, same-source
groups move the ``planned*`` counters, a failing order fails only its
own waiters, and expired entries are shed without counting as planned.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine.scans import TableScan
from repro.engine.sort_op import Sort
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec
from repro.obs import METRICS
from repro.serve import DeadlineExceededError, OrderService
from repro.workloads.generators import random_table

SCHEMA = Schema.of("A", "B", "C", "D")
DOMAINS = [16, 24, 48, 8]

#: All four rotations — distinct but closely related orders.
ROTATIONS = [
    SortSpec(list(SCHEMA.columns)[i:] + list(SCHEMA.columns)[:i])
    for i in range(4)
]


def _table(n_rows=400, seed=0):
    return random_table(SCHEMA, n_rows, domains=DOMAINS, seed=seed)


def _serial_uncached(table, spec):
    op = Sort(TableScan(table), spec, config=ExecutionConfig(cache="off"))
    out = op.to_table()
    return out.rows, out.ovcs


def test_sibling_orders_form_one_planned_batch():
    METRICS.enable(clear=True)
    table = _table()
    refs = {spec: _serial_uncached(table, spec) for spec in ROTATIONS}
    cfg = ExecutionConfig(cache="off", service_threads=1,
                          service_queue_depth=16, plan_window_ms=400.0)
    with OrderService(cfg) as svc:
        tickets = [svc.submit(table, spec) for spec in ROTATIONS]
        responses = [t.result(timeout=60) for t in tickets]
        counters = svc.counters()

    for spec, resp in zip(ROTATIONS, responses):
        rows, ovcs = refs[spec]
        assert resp.table.rows == rows
        assert resp.table.ovcs == ovcs
    assert counters["planned_batches"] == 1
    assert counters["planned"] == len(ROTATIONS)
    assert counters["executions"] == len(ROTATIONS)
    snap = METRICS.as_dict()["counters"]
    assert snap["serve.planned_batches"] == 1
    assert snap["serve.planned_requests"] == len(ROTATIONS)


def test_mixed_sources_split_into_groups():
    table_a, table_b = _table(seed=0), _table(seed=1)
    cfg = ExecutionConfig(cache="off", service_threads=1,
                          service_queue_depth=16, plan_window_ms=400.0)
    with OrderService(cfg) as svc:
        tickets = [
            svc.submit(table_a, ROTATIONS[1]),
            svc.submit(table_a, ROTATIONS[2]),
            svc.submit(table_b, ROTATIONS[1]),
        ]
        responses = [t.result(timeout=60) for t in tickets]
        counters = svc.counters()

    assert responses[0].table.rows == _serial_uncached(table_a, ROTATIONS[1])[0]
    assert responses[2].table.rows == _serial_uncached(table_b, ROTATIONS[1])[0]
    # The two same-source orders planned together; the lone one ran solo.
    assert counters["planned_batches"] == 1
    assert counters["planned"] == 2
    assert counters["executions"] == 3


def test_window_off_by_default():
    table = _table()
    with OrderService(ExecutionConfig(cache="off", service_threads=1)) as svc:
        assert svc.config.plan_window_ms is None
        for spec in ROTATIONS[:2]:
            svc.order_by(table, spec, timeout=60)
        counters = svc.counters()
    assert counters["planned_batches"] == 0
    assert counters["planned"] == 0
    assert counters["executions"] == 2


def test_sixteen_thread_batched_path_stays_bit_identical():
    """The acceptance bar: batched serving == unbatched, bit for bit."""
    table = _table(500)
    refs = {spec: _serial_uncached(table, spec) for spec in ROTATIONS}
    cfg = ExecutionConfig(cache="off", service_threads=2,
                          service_queue_depth=64, plan_window_ms=60.0)
    n_threads, waves = 16, 4
    barrier = threading.Barrier(n_threads)
    failures: list[str] = []

    def _client(t):
        spec = ROTATIONS[t % len(ROTATIONS)]
        rows, ovcs = refs[spec]
        for _ in range(waves):
            barrier.wait()
            resp = svc.order_by(table, spec, tenant=f"t{t}", timeout=120)
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
            th.join(timeout=180)
        counters = svc.counters()

    assert not failures, failures[:5]
    assert counters["requests"] == n_threads * waves
    # Barrier-synchronized waves of 4 distinct sibling orders: the
    # window reliably captures at least one plannable group.
    assert counters["planned_batches"] >= 1
    assert counters["coalesced"] > 0
    assert counters["executions"] < counters["requests"]


# ------------------------------------------ per-order publication and the window


def _gate_executor_kernel(monkeypatch, on_call):
    """Run ``on_call(n)`` before the n-th order a ``Sort`` enforces —
    every drained request of a micro-batch runs through one."""
    import repro.engine.sort_op as sort_op

    real = sort_op.enforce_order
    calls = []

    def gated(*args, **kwargs):
        calls.append(1)
        on_call(len(calls))
        return real(*args, **kwargs)

    monkeypatch.setattr(sort_op, "enforce_order", gated)


def test_each_order_is_answered_the_moment_it_is_derived(monkeypatch):
    second_started, release = threading.Event(), threading.Event()

    def _block_second(n):
        if n == 2:
            second_started.set()
            assert release.wait(timeout=60)

    table = _table()
    refs = {spec: _serial_uncached(table, spec) for spec in ROTATIONS}
    _gate_executor_kernel(monkeypatch, _block_second)
    cfg = ExecutionConfig(cache="off", service_threads=1,
                          service_queue_depth=16, plan_window_ms=400.0)
    with OrderService(cfg) as svc:
        tickets = {spec: svc.submit(table, spec) for spec in ROTATIONS}
        try:
            assert second_started.wait(timeout=60)
            # The first order is out while the second is still blocked.
            done = [spec for spec, t in tickets.items() if t.done]
            assert len(done) == 1
            first = tickets[done[0]].result(timeout=60)
            assert (first.table.rows, first.table.ovcs) == refs[done[0]][:2]
            assert svc.counters()["planned_batches"] == 1
        finally:
            release.set()
        for spec, ticket in tickets.items():
            resp = ticket.result(timeout=60)
            assert (resp.table.rows, resp.table.ovcs) == refs[spec][:2]
        counters = svc.counters()
    assert counters["planned"] == len(ROTATIONS)
    assert counters["planned_batches"] == 1


def test_a_failing_order_fails_only_its_own_waiters(monkeypatch):
    table = _table()
    refs = {spec: _serial_uncached(table, spec) for spec in ROTATIONS}

    def _third_raises(n):
        if n == 3:
            raise RuntimeError("synthetic kernel failure")

    _gate_executor_kernel(monkeypatch, _third_raises)
    cfg = ExecutionConfig(cache="off", service_threads=1,
                          service_queue_depth=16, plan_window_ms=400.0)
    with OrderService(cfg) as svc:
        tickets = [svc.submit(table, spec) for spec in ROTATIONS]
        with pytest.raises(RuntimeError, match="synthetic kernel failure"):
            tickets[2].result(timeout=60)
        responses = {
            spec: ticket.result(timeout=60)
            for spec, ticket in zip(ROTATIONS, tickets)
            if ticket is not tickets[2]
        }
        counters = svc.counters()
        assert svc._executing == 0

    assert len(responses) == 3
    for spec, resp in responses.items():
        assert (resp.table.rows, resp.table.ovcs) == refs[spec][:2]
    assert counters["errors"] == 1
    assert counters["executions"] == len(ROTATIONS) - 1
    assert counters["planned"] == len(ROTATIONS)
    assert counters["planned_batches"] == 1
    assert counters["inflight"] == 0


def test_expired_entry_shed_before_planning(monkeypatch):
    running, release = threading.Event(), threading.Event()

    def _hold_first(n):
        if n == 1:
            running.set()
            assert release.wait(timeout=60)

    table = _table()
    _gate_executor_kernel(monkeypatch, _hold_first)
    cfg = ExecutionConfig(cache="off", service_threads=1,
                          service_queue_depth=16, plan_window_ms=300.0)
    with OrderService(cfg) as svc:
        blocker = svc.submit(table, ROTATIONS[0])
        try:
            assert running.wait(timeout=60)
            # Both queue behind the running execution; one expires there.
            doomed = svc.submit(table, ROTATIONS[1], deadline_ms=30)
            patient = svc.submit(table, ROTATIONS[2])
            time.sleep(0.1)
        finally:
            release.set()
        blocker.result(timeout=60)
        resp = patient.result(timeout=60)
        with pytest.raises(DeadlineExceededError, match="expired in queue"):
            doomed.result(timeout=60)
        counters = svc.counters()
    rows, ovcs = _serial_uncached(table, ROTATIONS[2])
    assert (resp.table.rows, resp.table.ovcs) == (rows, ovcs)
    assert counters["deadline_exceeded"] == 1
    # The doomed entry was shed from the drained pair: only the blocker
    # and the survivor executed, and a group with one live entry is no
    # planned batch.
    assert counters["executions"] == 2
    assert counters["planned"] == 0
    assert counters["planned_batches"] == 0


def test_every_publication_yields_once_after_its_ticket_is_done(monkeypatch):
    import repro.serve.service as service

    running, release = threading.Event(), threading.Event()

    def _gate(n):
        if n == 1:
            running.set()
            assert release.wait(timeout=60)
        elif n == 2:
            raise RuntimeError("synthetic kernel failure")

    tickets = []
    yields = []
    real_sleep = service.time.sleep

    def _recording_sleep(seconds):
        if threading.current_thread().name.startswith("repro-serve-"):
            yields.append((seconds, [t.done for t in tickets]))
        real_sleep(seconds)

    table = _table()
    _gate_executor_kernel(monkeypatch, _gate)
    monkeypatch.setattr(service.time, "sleep", _recording_sleep)
    cfg = ExecutionConfig(cache="off", service_threads=1,
                          service_queue_depth=16, plan_window_ms=300.0)
    with OrderService(cfg) as svc:
        tickets.append(svc.submit(table, ROTATIONS[0]))
        try:
            assert running.wait(timeout=60)
            tickets.append(svc.submit(table, ROTATIONS[1], deadline_ms=30))
            tickets.append(svc.submit(table, ROTATIONS[2]))
            real_sleep(0.1)
        finally:
            release.set()
        tickets[0].result(timeout=60)
        # The last to publish first: an expired ticket waited on before
        # its shedding fails on its own deadline instead.
        with pytest.raises(RuntimeError, match="synthetic kernel failure"):
            tickets[2].result(timeout=60)
        with pytest.raises(DeadlineExceededError, match="expired in queue"):
            tickets[1].result(timeout=60)
    # A normal execution, a shed expired entry, a failing execution:
    # each published once, each yield after its own ticket is done.
    assert yields == [
        (0, [True, False, False]),
        (0, [True, True, False]),
        (0, [True, True, True]),
    ]


def test_window_is_an_upper_bound_for_a_lone_request():
    table = _table()
    cfg = ExecutionConfig(cache="off", service_threads=1,
                          plan_window_ms=2000.0)
    with OrderService(cfg) as svc:
        svc.order_by(table, ROTATIONS[0], timeout=60)  # fingerprint, imports
        start = time.perf_counter()
        resp = svc.order_by(table, ROTATIONS[1], timeout=60)
        elapsed = time.perf_counter() - start
    assert resp.table.rows == _serial_uncached(table, ROTATIONS[1])[0]
    # Nothing else is queued, so the window closes at once: the request
    # is never held, let alone for the window.
    assert elapsed < 0.1


def test_back_to_back_submits_still_form_one_batch():
    METRICS.enable(clear=True)
    table = _table()
    cfg = ExecutionConfig(cache="off", service_threads=2,
                          service_queue_depth=16, plan_window_ms=200.0)
    with OrderService(cfg) as svc:
        svc.order_by(table, ROTATIONS[0], timeout=60)  # warm the table memo
        tickets = [svc.submit(table, spec) for spec in ROTATIONS]
        for t in tickets:
            t.result(timeout=60)
        counters = svc.counters()
    assert counters["planned_batches"] == 1
    assert counters["planned"] == len(ROTATIONS)
    held = METRICS.as_dict()["histograms"]["serve.window_held_ms"]
    assert held["count"] == 2  # the warm-up's window and the batch's
