"""Concurrent ``Query`` usage through the service stays uncorrupted.

Two hazards the serving layer must neutralize:

* two threads sharing one :class:`~repro.query.Query`/table and
  ordering it concurrently must not cross-contaminate each other's
  output, nor the comparison counters of their own reference-engine
  operators (each operator owns its ``ComparisonStats``);
* concurrent executions with the order cache on must leave the cache
  in a consistent state — later requests served from it are still
  bit-identical.
"""

from __future__ import annotations

import threading

from repro.cache import configure_cache, get_cache
from repro.engine.scans import TableScan
from repro.engine.sort_op import Sort
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec
from repro.query import Query
from repro.serve import OrderService
from repro.workloads.generators import random_table

SCHEMA = Schema.of("A", "B", "C", "D")
REFERENCE = ExecutionConfig(engine="reference")


def _refs(table, orders):
    """Per order: rows, codes and reference-engine counts of a solo
    uncached ``Sort``."""
    out = {}
    for spec in orders:
        op = Sort(TableScan(table), spec, config=REFERENCE)
        t = op.to_table()
        out[str(spec.columns)] = (t.rows, t.ovcs, op.stats.as_dict())
    return out


def test_two_threads_sharing_one_source_keep_counters_isolated():
    table = random_table(SCHEMA, 400, domains=[10, 20, 40, 5], seed=7)
    orders = [SortSpec.of("B", "A"), SortSpec.of("C", "D", "A")]
    refs = _refs(table, orders)
    cfg = ExecutionConfig(cache="off", service_threads=2)
    failures: list[str] = []
    barrier = threading.Barrier(2)

    def _client(spec):
        rows, ovcs, stats = refs[str(spec.columns)]
        for _ in range(5):
            barrier.wait()
            resp = svc.order_by(table, spec, timeout=60)
            if resp.table.rows != rows or resp.table.ovcs != ovcs:
                failures.append(f"{spec.columns}: output diverged")
            op = Sort(TableScan(table), spec, config=REFERENCE)
            op.to_table()
            if op.stats.as_dict() != stats:
                # Cross-contamination would double counters or mix the
                # two orders' counts.
                failures.append(f"{spec.columns}: counters corrupted")

    with OrderService(cfg) as svc:
        threads = [
            threading.Thread(target=_client, args=(spec,)) for spec in orders
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    assert not failures, failures[:4]


def test_shared_query_object_is_safe_via_service():
    # A single Query held by many threads: each order_by() derives a
    # fresh operator, and routing execution through the service means
    # no thread ever iterates another's operator state.
    table = random_table(SCHEMA, 300, domains=[8, 16, 32, 4], seed=11)
    shared = Query(table)
    expected = shared.order_by(
        "B", "A", config=ExecutionConfig(cache="off")
    ).to_table()
    results, errors = [], []

    def _client():
        try:
            resp = svc.order_by(table, "B", "A", timeout=60)
            results.append(resp.table)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    with OrderService(ExecutionConfig(cache="off", service_threads=4)) as svc:
        threads = [threading.Thread(target=_client) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    assert not errors
    assert len(results) == 6
    for got in results:
        assert got.rows == expected.rows
        assert got.ovcs == expected.ovcs


def test_concurrent_service_traffic_keeps_cache_consistent():
    table = random_table(SCHEMA, 350, domains=[10, 18, 36, 6], seed=13)
    orders = [SortSpec.of("A", "C"), SortSpec.of("B", "D"),
              SortSpec.of("D", "A")]
    refs = _refs(table, orders)
    configure_cache()
    cfg = ExecutionConfig(cache="on", service_threads=3)
    failures: list[str] = []

    def _client(spec):
        rows, ovcs, _stats = refs[str(spec.columns)]
        for _ in range(4):
            resp = svc.order_by(table, spec, timeout=60)
            if resp.table.rows != rows or resp.table.ovcs != ovcs:
                failures.append(f"{spec.columns}: cache-era divergence")

    with OrderService(cfg) as svc:
        threads = [
            threading.Thread(target=_client, args=(spec,))
            for spec in orders for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        # Cache-warm replay after the storm is still bit-identical.
        for spec in orders:
            rows, ovcs, _ = refs[str(spec.columns)]
            resp = svc.order_by(table, spec, timeout=60)
            assert resp.table.rows == rows
            assert resp.table.ovcs == ovcs
    cache = get_cache()
    assert cache is not None
    assert cache.counters()["entries"] >= 1
    assert not failures, failures[:4]
