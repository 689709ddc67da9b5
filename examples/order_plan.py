"""Batch order derivation: many orders of one table, planned once.

Several clients want different sort orders of the same table.  The
batch planner prices, for each order, everything that already exists
for those rows — the table's own order and any order the cache holds —
and derives the order from the cheapest of them, exactly as a solo
``Sort`` would have: same parent, same label, bit-identical rows and
codes.

Run:  PYTHONPATH=src python examples/order_plan.py
"""

from __future__ import annotations

from repro import (
    ExecutionConfig,
    Query,
    Schema,
    Sort,
    SortSpec,
    configure_cache,
    reset_cache,
)
from repro.cache import fingerprint_table
from repro.engine.scans import TableScan
from repro.plan import derive_batch, plan_batch
from repro.workloads.generators import random_sorted_table

SCHEMA = Schema.of("region", "store", "sku", "day")
BASE = SortSpec.of("region", "store", "sku", "day")

#: An order the cache already holds, and four requests: that order
#: again, a close relative of it, a close relative of the table's own
#: order, and one related to neither.
CACHED = SortSpec.of("store", "region", "sku", "day")
ORDERS = [
    CACHED,
    SortSpec.of("store", "region", "day", "sku"),
    SortSpec.of("region", "sku", "store", "day"),
    SortSpec.of("day", "sku", "store", "region"),
]


def main() -> None:
    # engine="reference" so every node reports its comparison counts
    # (the default engine runs the packed-code kernels, which count nothing).
    cfg = ExecutionConfig(cache="on", engine="reference")
    source = random_sorted_table(
        SCHEMA, BASE, 20_000, domains=[8, 32, 64, 28], seed=7
    )
    cache = configure_cache()
    Sort(TableScan(source), CACHED, config=cfg).to_table()

    # --- 1. the plan itself -----------------------------------------
    plan = plan_batch(source, ORDERS, cache=cache,
                      fingerprint=fingerprint_table(source), config=cfg)
    print(plan.explain())
    print()

    # --- 2. plan + execute in one call ------------------------------
    result = derive_batch(source, ORDERS, config=cfg)
    for spec in ORDERS:
        node = result.result_for(spec)
        print(f"{','.join(spec.names):24s} via {node.label:40s} "
              f"{node.stats_delta.row_comparisons:>8,} row comparisons")

    # Every output is bit-identical to an independent, uncached run.
    solo = cfg.with_(cache="off")
    for spec in ORDERS:
        ref = Sort(TableScan(source), spec, config=solo).to_table()
        node = result.result_for(spec)
        assert node.table.rows == ref.rows
        assert node.table.ovcs == ref.ovcs
    print("\nall outputs bit-identical to solo runs; "
          f"est {result.plan.est_speedup:.2f}x vs deriving all from the table")

    # --- 3. the fluent facade ---------------------------------------
    tables = Query(source).order_by_many(ORDERS, config=solo)
    assert [t.sort_spec for t in tables] == ORDERS
    print(f"Query.order_by_many returned {len(tables)} tables")
    reset_cache()


if __name__ == "__main__":
    main()
