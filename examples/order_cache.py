#!/usr/bin/env python3
"""The order cache: repeat ``order_by`` traffic served without re-sorting.

The paper's machinery makes a sorted order plus its offset-value codes
a reusable asset *within* one call; the order cache
(:mod:`repro.cache`) extends that **across requests**.  This demo
issues three related sort orders over the same unordered rows twice (a
table already sorted with codes is its own parent: a sibling order is
derived from it, not from the cache):

* round one: the first order pays a full sort; the cache then serves
  each *sibling* order by feeding the cached rows and codes through
  ``modify_sort_order`` — the paper's segment/merge machinery — after
  the cost model prices that cheaper than sorting from scratch;
* round two: every order is an exact hit, rows and codes verbatim; a
  hit compares nothing, so it counts nothing.

Every response is bit-identical (rows *and* codes) to what an uncached
execution would produce, checked below against ``cache="off"`` runs.

Run:  python examples/order_cache.py
"""

from __future__ import annotations

import random
import time

from repro.cache import get_cache, reset_cache
from repro import ExecutionConfig
from repro import Schema, Table
from repro import Query

ORDERS = [("A", "B", "C"), ("A", "C", "B"), ("B", "A", "C")]


def run(table: Table, order: tuple, config: ExecutionConfig):
    query = Query(table).order_by(*order, config=config)
    start = time.perf_counter()
    out = query.to_table()
    return time.perf_counter() - start, out, query


def main() -> None:
    schema = Schema.of("A", "B", "C", "D")
    rng = random.Random(7)
    rows = [
        (rng.randrange(32), rng.randrange(64), rng.randrange(256),
         rng.randrange(8))
        for _ in range(1 << 13)
    ]
    table = Table(schema, rows)

    off = ExecutionConfig(cache="off")
    on = ExecutionConfig(cache="on", cache_budget="32MiB")

    cold = {order: run(table, order, off) for order in ORDERS}

    reset_cache()
    print(f"{len(rows):,} rows, three related orders, two rounds:\n")
    for round_no in (1, 2):
        print(f"round {round_no}:")
        for order in ORDERS:
            seconds, out, query = run(table, order, on)
            cold_seconds, cold_out, _ = cold[order]
            assert out.rows == cold_out.rows, "rows diverged from cache=off"
            assert out.ovcs == cold_out.ovcs, "codes diverged from cache=off"
            print(
                f"  order_by{order}: {seconds:.4f}s "
                f"(cold sort {cold_seconds:.4f}s)  "
                f"strategy: {query.op.order_strategy}"
            )
        print()

    print("per-node strategy is visible in EXPLAIN after execution:")
    query = Query(table).order_by(*ORDERS[1], config=on)
    query.to_table()
    print("  " + query.explain().splitlines()[0])
    print()

    cache = get_cache()
    counters = cache.counters()
    print(
        f"cache: {counters['entries']} entries, "
        f"{counters['bytes_resident']:,} resident bytes, "
        f"{counters['hits']} hits / {counters['misses']} misses, "
        f"{counters['installs']} installs"
    )
    print("every response was bit-identical to uncached execution")
    reset_cache()


if __name__ == "__main__":
    main()
