"""Closed-loop load driver and the serving load record.

A scaled-down version of the acceptance load (``serve --load`` runs
the full 16-thread shape): executions must undercut requests on the
cached pass, duplicate-heavy traffic must coalesce on the uncached
one, and the record must carry the latency percentiles, the hits at
submit and the executions-per-request ratio that ``serve --load``
reports.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.exec import ExecutionConfig
from repro.model import Schema
from repro.serve import OrderService, default_orders, run_load
from repro.serve.load import (
    _percentile,
    check_serve_record,
    run_serve_trajectory,
)
from repro.workloads.generators import random_table

SCHEMA = Schema.of("A", "B", "C", "D")


def test_percentile_nearest_rank():
    vals = [1.0, 2.0, 3.0, 4.0]
    assert _percentile(vals, 50) == 2.0
    assert _percentile(vals, 99) == 4.0
    assert _percentile([], 50) == 0.0


def test_default_orders_distinct_and_bounded():
    table = random_table(SCHEMA, 16, domains=4, seed=0)
    orders = default_orders(table, 4)
    assert len({tuple(str(c) for c in o.columns) for o in orders}) == 4
    with pytest.raises(ValueError):
        default_orders(table, 5)


def test_run_load_duplicate_heavy_shares_work():
    table = random_table(SCHEMA, 300, domains=[12, 16, 32, 6], seed=3)
    cfg = ExecutionConfig(cache="off", service_threads=2,
                          service_queue_depth=64)
    with OrderService(cfg) as svc:
        report = run_load(
            svc, table, default_orders(table, 4),
            threads=8, requests_per_thread=4,
        )
    assert report["requests"] == 32
    assert report["completed"] == 32
    assert report["errors"] == 0 and report["rejected"] == 0
    assert report["executions"] < report["requests"]
    assert report["coalesced_requests"] > 0
    assert report["executions_per_request"] < 1.0
    assert report["latency_ms"]["p99"] >= report["latency_ms"]["p50"] > 0
    assert report["throughput_rps"] > 0


def test_run_load_validation():
    table = random_table(SCHEMA, 16, domains=4, seed=0)
    with OrderService(ExecutionConfig(service_threads=1)) as svc:
        with pytest.raises(ValueError):
            run_load(svc, table, [], threads=2)
        with pytest.raises(ValueError):
            run_load(svc, table, default_orders(table, 2), threads=0)


def _hold_first_uncached_execution(monkeypatch):
    """Hold the first execution of a cache-less service until another
    request has coalesced onto an execution in flight.  Thread ``t`` of
    the load asks for order ``t % n_orders``, so every order has a
    second requester in each wave; while the held order runs, its
    partner's request can only attach to it.  The uncached pass's
    coalescing is then a fact of the schedule, not of thread timing."""
    real = OrderService._execute
    lock, held = threading.Lock(), []

    def _execute(self, entry):
        with lock:
            first = self._config.cache == "off" and not held
            if first:
                held.append(entry)
        if first:
            deadline = time.monotonic() + 60
            while self.counters()["coalesced"] == 0:
                assert time.monotonic() < deadline, "nothing coalesced"
                time.sleep(0.001)
        real(self, entry)

    monkeypatch.setattr(OrderService, "_execute", _execute)
    return held


def test_serve_trajectory_record_passes_its_own_gate(monkeypatch):
    held = _hold_first_uncached_execution(monkeypatch)
    record = run_serve_trajectory(
        256, seed=1, threads=8, requests_per_thread=3, n_orders=4
    )
    assert check_serve_record(record) == []
    assert record["fidelity_ok"] is True
    # Cached pass: repeats are answered at submit, so executions stay
    # under requests whether or not any duplicate happened to coalesce.
    assert record["executions"] < record["requests"]
    assert record["cache_hits"] > 0
    assert record["requests"] == (
        record["cache_hits"] + record["executions"]
        + record["coalesced_requests"]
    )
    # Uncached pass: coalescing is the only sharing there is.
    uncached = record["uncached"]
    assert len(held) == 1  # the uncached pass ran under the hold
    assert uncached["cache_hits"] == 0
    assert uncached["coalesced_requests"] > 0


def test_check_serve_record_flags_failures():
    bad = {
        "fidelity_problems": ["order A: rows diverged"],
        "errors": 1,
        "requests": 10,
        "executions": 10,
        "coalesced_requests": 0,
        "uncached": {"errors": 0, "coalesced_requests": 0},
    }
    problems = check_serve_record(bad)
    assert len(problems) == 4
    # Coalescing is judged on the uncached pass only: a warm cached
    # pass answers repeats at submit and may coalesce nothing.
    good = {
        **bad, "fidelity_problems": [], "errors": 0, "executions": 4,
        "uncached": {"errors": 0, "coalesced_requests": 3},
    }
    assert check_serve_record(good) == []
    failed = {**good, "uncached": {"errors": 2, "coalesced_requests": 3}}
    assert check_serve_record(failed) == ["2 uncached request(s) failed"]
