"""Batch order derivation: many orders of one table, planned once.

Several clients want different sort orders of the same table.  The
batch planner predicts, for each order, the parent a solo ``Sort`` would
derive it from, by the very rule that ``Sort`` follows.  A table sorted
with codes is its own parent: a cached order replaces it only when it
is the requested order itself.  An unordered table's orders are priced
against a full sort, and a cached relative wins when it is clearly
cheaper.  ``derive_batch`` then runs every order through that very
``Sort``, so each answer has the solo run's path, label, rows and
codes; an order whose ``Sort`` took another path than predicted is
flagged ``fallback``.

Run:  PYTHONPATH=src python examples/order_plan.py
"""

from __future__ import annotations

from repro import (
    ExecutionConfig,
    Query,
    Schema,
    Sort,
    SortSpec,
    Table,
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


def _plan_and_run(source, cfg) -> dict:
    """Cache ``CACHED`` for ``source``, plan and run ``ORDERS``; print
    the plan and every order's path; return the paths by order."""
    cache = configure_cache()
    Sort(TableScan(source), CACHED, config=cfg).to_table()
    plan = plan_batch(source, ORDERS, cache=cache,
                      fingerprint=fingerprint_table(source), config=cfg)
    print(plan.explain())
    result = derive_batch(source, ORDERS, config=cfg)
    for spec in ORDERS:
        node = result.result_for(spec)
        print(f"  {','.join(spec.names):24s} via {node.label}")
    assert result.fallbacks == 0  # every order ran as planned

    # Every output is bit-identical to an independent, uncached run.
    solo = cfg.with_(cache="off")
    for spec in ORDERS:
        ref = Sort(TableScan(source), spec, config=solo).to_table()
        node = result.result_for(spec)
        assert node.table.rows == ref.rows
        assert node.table.ovcs == ref.ovcs
    print()
    return {spec: result.result_for(spec).label.split("(")[0]
            for spec in ORDERS}


def main() -> None:
    cfg = ExecutionConfig(cache="on")
    source = random_sorted_table(
        SCHEMA, BASE, 20_000, domains=[8, 32, 64, 28], seed=7
    )

    # --- 1. a sorted table is its own parent --------------------------
    paths = _plan_and_run(source, cfg)
    assert paths[CACHED] == "cache-hit"
    assert set(paths.values()) == {"cache-hit", "modify"}

    # --- 2. an unordered table derives from a cached relative ---------
    shuffled = Table(SCHEMA, source.rows[1::2] + source.rows[::2])
    paths = _plan_and_run(shuffled, cfg)
    assert paths[CACHED] == "cache-hit"
    assert paths[ORDERS[1]] == "modify-from-cache"  # a close relative
    print("all outputs bit-identical to solo runs")

    # --- 3. the fluent facade -----------------------------------------
    tables = Query(source).order_by_many(ORDERS, config=cfg.with_(cache="off"))
    assert [t.sort_spec for t in tables] == ORDERS
    print(f"Query.order_by_many returned {len(tables)} tables")
    reset_cache()


if __name__ == "__main__":
    main()
