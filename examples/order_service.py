"""Serve concurrent order_by traffic through the OrderService.

Many clients asking for orders over shared tables; the service bounds
admission, coalesces duplicate in-flight requests into one execution,
and fans the result out bit-identically to every waiter.

Run:  PYTHONPATH=src python examples/order_service.py
"""

from __future__ import annotations

import threading

from repro import (
    ExecutionConfig,
    OrderService,
    Schema,
    ServiceOverloadError,
    SortSpec,
)
from repro.workloads.generators import random_sorted_table

SCHEMA = Schema.of("region", "store", "sku", "day")


def main() -> None:
    table = random_sorted_table(
        SCHEMA, SortSpec.of("region", "store", "sku", "day"), 2_000,
        domains=[8, 32, 64, 28], seed=42,
    )

    config = ExecutionConfig(
        cache="on",            # repeat orders served from the order cache
        service_threads=4,     # scheduler pool
        service_queue_depth=32,  # beyond this, submit() rejects
    )

    with OrderService(config) as service:
        # --- one-shot convenience -----------------------------------
        resp = service.order_by(table, ("sku", "day"), deadline_ms=5_000)
        print(f"one-shot: {len(resp.table.rows)} rows via {resp.label}")

        # --- a burst of duplicate requests from many threads --------
        orders = [SortSpec.of("sku", "day"), SortSpec.of("day", "region")]
        responses = []
        lock = threading.Lock()

        def client(i: int) -> None:
            spec = orders[i % len(orders)]
            try:
                r = service.order_by(
                    table, spec, tenant=f"team-{i % 3}", deadline_ms=5_000
                )
            except ServiceOverloadError as exc:
                print(f"client {i}: shed by admission control: {exc}")
                return
            with lock:
                responses.append((spec, r))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # Duplicates shared executions; every response is bit-identical
        # to a solo run of the same order.
        by_order = {}
        for spec, r in responses:
            key = str(spec.columns)
            prev = by_order.setdefault(key, r)
            assert r.table.rows == prev.table.rows
            assert r.table.ovcs == prev.table.ovcs

        # Requests whose order was already cached were answered inside
        # submit() on the client's thread; the rest ran on the pool or
        # rode on a duplicate's execution.
        c = service.counters()
        print(f"burst: {c['requests']} requests -> {c['cache_hits']} hits "
              f"at submit, {c['executions']} executions, "
              f"{c['coalesced']} coalesced")
        print(f"health: {service.health()['status']}")


if __name__ == "__main__":
    main()
