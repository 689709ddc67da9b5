"""Batch order derivation: many related orders as one shared tree.

Four clients want four different sort orders of the same table.  Run
independently that is four full derivations from the source; the batch
planner instead builds a minimum-cost derivation tree — each order
produced from its cheapest already-produced relative — and executes
it, bit-identical per order to a solo run.

Run:  PYTHONPATH=src python examples/order_plan.py
"""

from __future__ import annotations

from repro import ExecutionConfig, Query, Schema, Sort, SortSpec
from repro.engine.scans import TableScan
from repro.plan import derive_batch, plan_batch
from repro.workloads.generators import random_sorted_table

SCHEMA = Schema.of("region", "store", "sku", "day")
BASE = SortSpec.of("region", "store", "sku", "day")

#: Rotations of the base order: distinct targets with long shared
#: prefixes between neighbors — the planner's favorite diet.
ORDERS = [
    SortSpec(list(BASE.names)[i:] + list(BASE.names)[:i])
    for i in range(1, 4)
]


def main() -> None:
    # engine="reference" so every node reports its comparison counts
    # (the default engine runs the packed-code kernels, which count nothing).
    cfg = ExecutionConfig(cache="off", engine="reference")
    source = random_sorted_table(
        SCHEMA, BASE, 20_000, domains=[8, 32, 64, 28], seed=7
    )

    # --- 1. the plan itself -----------------------------------------
    plan = plan_batch(source, ORDERS, config=cfg)
    print(plan.explain())
    print()

    # --- 2. plan + execute in one call ------------------------------
    result = derive_batch(source, ORDERS, config=cfg)
    for spec in ORDERS:
        node = result.result_for(spec)
        print(f"{','.join(spec.names):24s} via {node.label:28s} "
              f"{node.stats_delta.row_comparisons:>8,} row comparisons")

    # Every output is bit-identical to an independent execution.
    for spec in ORDERS:
        op = Sort(TableScan(source), spec, config=cfg)
        ref = op.to_table()
        node = result.result_for(spec)
        assert node.table.rows == ref.rows
        assert node.table.ovcs == ref.ovcs
    print("\nall outputs bit-identical to solo runs; "
          f"est {result.plan.est_speedup:.2f}x vs independent, "
          f"{result.plan.sibling_edges()} sibling edge(s)")

    # --- 3. the fluent facade ---------------------------------------
    tables = Query(source).order_by_many(ORDERS, config=cfg)
    assert [t.sort_spec for t in tables] == ORDERS
    print(f"Query.order_by_many returned {len(tables)} tables")


if __name__ == "__main__":
    main()
