"""Memory-bounded order modification with spill accounting.

Hypothesis 1 made executable: with a memory budget, a whole-input sort
of a large table must spill runs (external merge sort), while segmented
execution sorts one segment at a time — if every segment fits in
memory, *no* spill happens at all ("segmented sorting can save a merge
level, even turning external merge sort into internal sorting").

:func:`modify_sort_order_external` runs the paper's step segment by
segment, with executors bound by :func:`repro.core.modify.bind_strategy`:

* segments that fit in memory run exactly as in
  :func:`repro.core.modify.modify_sort_order`, on the executor bound
  (once, at the first such segment) for the resolved engine;
* an oversized segment under ``segment_sort`` falls back to a true
  external merge sort of that segment (runs spilled and merged with
  the configured fan-in);
* an oversized segment under ``combined``/``merge_runs`` merges its
  pre-existing runs in waves of ``fan_in`` (graceful degradation) on
  the reference merge bound with that cap, charging intermediate wave
  outputs to the page manager.

All spill traffic lands in the supplied :class:`PageManager`.

There is one memory model here: ``memory_capacity`` is the *simulated*
sort-memory size (in rows) whose spill economics the paper's hypotheses
are about, and the page manager counts the I/O it implies.  The input
table and the result are resident Python lists either way.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..exec.config import ExecutionConfig
from ..model import SortSpec, Table
from ..obs import LOG, TRACER
from ..ovc.stats import ComparisonStats
from ..sorting.external import ExternalMergeSort
from ..storage.pages import PageManager
from .analysis import Strategy, analyze_order_modification
from .classify import split_segments
from .modify import (
    _check_method,
    _resolve_strategy,
    bind_strategy,
    modify_sort_order,
    resolve_engine,
)


def modify_sort_order_external(
    table: Table,
    new_order: SortSpec | Sequence[str],
    memory_capacity: int,
    fan_in: int = 16,
    page_manager: PageManager | None = None,
    method: str = "auto",
    stats: ComparisonStats | None = None,
    run_generation: str = "replacement",
    config: ExecutionConfig | None = None,
) -> Table:
    """Modify ``table``'s sort order within a row-count memory budget.

    Returns the re-sorted table; spill I/O (if any) accumulates in
    ``page_manager``.  With segments smaller than ``memory_capacity``
    the operation is fully internal — the hypothesis 1 scenario.

    ``method`` is checked as :func:`~repro.core.modify.modify_sort_order`
    checks it: an unknown name, or a strategy the orders do not admit,
    raises the same ``ValueError``.  ``auto`` runs the structural plan
    (the cost model's full-sort pick would trade a stable merge for the
    unstable external sort).

    ``config`` carries the execution knobs (the engine — see
    :class:`repro.exec.ExecutionConfig`).
    The engine follows :func:`~repro.core.modify.resolve_engine`, as in
    :func:`~repro.core.modify.modify_sort_order`: ``auto`` executes the
    in-memory segments through the packed-code kernels
    (:mod:`repro.fastpath`) — same rows and codes, no comparison counts
    — unless a ``stats`` collector was passed, falling back to the
    reference executors when the key packer cannot rank the input's
    keys.  Oversized segments always take the reference path: spill
    accounting and capped merge waves are the point of this function,
    and the fast kernels do not model them.

    Stability: the structural strategies (merge/segment paths) are
    stable like their in-memory counterparts; segments or inputs that
    fall back to a true external sort inherit replacement selection's
    lack of stability, as in classic external merge sorts.
    """
    if memory_capacity < 2:
        raise ValueError("memory capacity must allow at least two rows")
    _check_method(method)
    cfg = config if config is not None else ExecutionConfig.default()
    if table.sort_spec is None:
        raise ValueError("input table must declare its sort order")
    new_spec = new_order if isinstance(new_order, SortSpec) else SortSpec(new_order)
    pages = page_manager if page_manager is not None else PageManager()
    table.with_ovcs()

    plan = analyze_order_modification(table.sort_spec, new_spec)
    if plan.backward or plan.strategy is Strategy.NOOP:
        # Backward scans and no-ops never need memory beyond the scan;
        # delegate wholesale (modify_sort_order applies the engine rule
        # itself).
        return modify_sort_order(
            table, new_spec, method=method, stats=stats, config=cfg
        )

    if method == "auto":
        strategy = plan.strategy
    else:
        strategy = _resolve_strategy(plan, method, len(table.rows), None)
    engine = resolve_engine(cfg, counters=stats is not None)
    stats = stats if stats is not None else ComparisonStats()
    rows, ovcs = table.rows, table.ovcs
    name = strategy.name.lower()

    out_rows: list[tuple] = []
    out_ovcs: list[tuple] = []
    merging = strategy in (Strategy.MERGE_RUNS, Strategy.COMBINED)
    segmented = strategy in (Strategy.SEGMENT_SORT, Strategy.COMBINED)
    prefix = plan.prefix_len if segmented else 0
    # Bound at their first use: the in-memory executor on the resolved
    # engine, and the reference merge with waves capped at the fan-in.
    # The engine reported is the in-memory one (reference if none ran).
    in_memory = capped = None
    ran, fallback = "reference", False
    with LOG.query_scope(), TRACER.span(
        "modify.external", rows=len(rows), strategy=name,
        memory_capacity=memory_capacity,
    ) as sp:
        for lo, hi in split_segments(ovcs, prefix, len(rows)):
            if hi - lo <= memory_capacity and strategy is not Strategy.FULL_SORT:
                if in_memory is None:
                    in_memory, ran, fallback = bind_strategy(
                        table, new_spec, plan, strategy, engine=engine,
                        stats=stats, forced=cfg.engine == "fast",
                    )
                in_memory(lo, hi, out_rows, out_ovcs)
            elif merging:
                # Pre-existing runs merge in waves of the fan-in; every
                # intermediate wave writes its output and reads it back.
                run_boundary = plan.prefix_len + plan.infix_len
                n_runs = sum(
                    1 for i in range(lo + 1, hi) if ovcs[i][0] < run_boundary
                ) + 1
                if n_runs > fan_in:
                    levels = math.ceil(math.log(n_runs, fan_in))
                    for _ in range(max(levels - 1, 0)):
                        pages.spill_run(rows[lo:hi]).read()
                if capped is None:
                    capped, _, _ = bind_strategy(
                        table, new_spec, plan, strategy, engine="reference",
                        stats=stats, max_fan_in=fan_in,
                    )
                capped(lo, hi, out_rows, out_ovcs)
            else:
                # A true external sort: runs spilled, merged by fan-in.
                result = ExternalMergeSort(
                    new_spec.positions(table.schema),
                    memory_capacity=memory_capacity,
                    fan_in=fan_in,
                    run_generation=run_generation,
                    directions=new_spec.directions,
                    page_manager=pages,
                ).sort(rows[lo:hi])
                stats.merge(result.total_stats)
                out_rows.extend(result.rows)
                sorted_ovcs = list(result.ovcs)
                if sorted_ovcs and prefix > 0:
                    sorted_ovcs[0] = ovcs[lo]
                out_ovcs.extend(sorted_ovcs)
        sp.set(engine=ran, fallback=fallback)
        if LOG.enabled:
            LOG.event(
                "modify.strategy", strategy=name, method=method,
                rows=len(rows), engine=ran, fallback=fallback,
                prefix_len=plan.prefix_len, merge_len=plan.merge_len,
            )
    return Table(table.schema, out_rows, new_spec, out_ovcs)
