"""Memory-bounded order modification with spill accounting.

Hypothesis 1 made executable: with a memory budget, a whole-input sort
of a large table must spill runs (external merge sort), while segmented
execution sorts one segment at a time — if every segment fits in
memory, *no* spill happens at all ("segmented sorting can save a merge
level, even turning external merge sort into internal sorting").

:func:`external_sort` is the one stable external sort, behind both the
enforcer's full sort (``Sort(memory_capacity=)``) and
:func:`modify_sort_order_external`, which runs the paper's step segment
by segment:

* segments that fit in memory run exactly as in
  :func:`repro.core.modify.modify_sort_order`, on the executor bound
  (once, at the first such segment) for the resolved engine;
* an oversized segment under ``segment_sort``/``full_sort`` is one
  :func:`external_sort`;
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
from ..sorting.external import merge_spilled
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
    config: ExecutionConfig | None = None,
) -> Table:
    """Modify ``table``'s sort order within a row-count memory budget.

    Returns the re-sorted table; spill I/O (if any) accumulates in
    ``page_manager``.  With segments smaller than ``memory_capacity``
    the operation is fully internal — the hypothesis 1 scenario.

    ``method`` is checked as :func:`~repro.core.modify.modify_sort_order`
    checks it: an unknown name, or a strategy the orders do not admit,
    raises the same ``ValueError``.  ``auto`` runs the structural plan.

    ``config`` carries the execution knobs (the engine — see
    :class:`repro.exec.ExecutionConfig`).
    The engine follows :func:`~repro.core.modify.resolve_engine`, as in
    :func:`~repro.core.modify.modify_sort_order`: ``auto`` executes the
    in-memory segments through the packed-code kernels
    (:mod:`repro.fastpath`) — same rows and codes, no comparison counts
    — unless a ``stats`` collector was passed, falling back to the
    reference executors when the key packer cannot rank the input's
    keys.  An oversized sort segment's :func:`external_sort` follows
    the same rule, packing that segment alone; an oversized merge segment
    takes the capped reference merge.  Every path is stable.  The engine
    reported is ``reference`` if any sort executor's was (or none ran).
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
    # ``bound``: (engine, fallback) of every sort executor bound.
    in_memory = capped = None
    bound: list[tuple[str, bool]] = []
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
                    bound.append((ran, fallback))
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
                # The segment as its own table: its keys are packed (and
                # a mix of types refused) for this segment alone.
                sorted_rows, sorted_ovcs, ran, fallback = external_sort(
                    Table(table.schema, rows[lo:hi]), new_spec,
                    memory_capacity, fan_in, pages, engine=engine,
                    stats=stats, forced=cfg.engine == "fast",
                )
                bound.append((ran, fallback))
                if sorted_ovcs and prefix > 0:
                    sorted_ovcs[0] = ovcs[lo]
                out_rows.extend(sorted_rows)
                out_ovcs.extend(sorted_ovcs)
        ran = max((e for e, _ in bound), default="reference")
        fallback = any(f for _, f in bound)
        sp.set(engine=ran, fallback=fallback)
        if LOG.enabled:
            LOG.event(
                "modify.strategy", strategy=name, method=method,
                rows=len(rows), engine=ran, fallback=fallback,
                prefix_len=plan.prefix_len, merge_len=plan.merge_len,
            )
    return Table(table.schema, out_rows, new_spec, out_ovcs)


def external_sort(
    table: Table, spec: SortSpec, memory_capacity: int, fan_in: int,
    pages: PageManager, *, engine: str, stats: ComparisonStats,
    use_ovc: bool = True, forced: bool = False, perm: list[int] | None = None,
) -> tuple[list[tuple], list[tuple] | None, str, bool]:
    """Stable sort of ``table.rows`` on ``spec``: ``(rows, ovcs, engine,
    fallback)``.  ``memory_capacity``-row runs are sorted by the executor
    :func:`~repro.core.modify.bind_strategy` binds for an unordered input;
    one run is the answer (``perm`` gets its permutation), more spill to
    ``pages`` and merge.  Only the reference engine counts into ``stats``.
    """
    run, engine, fallback = bind_strategy(
        table, spec, None, Strategy.FULL_SORT, engine=engine, stats=stats,
        use_ovc=use_ovc, forced=forced,
    )
    n = len(table.rows)

    def sort_run(lo, out_perm=None):
        rows, ovcs = [], [] if use_ovc else None
        run(lo, min(lo + memory_capacity, n), rows, ovcs, out_perm)
        return rows, ovcs

    if n <= memory_capacity:
        return (*sort_run(0, perm), engine, fallback)
    spilled = [
        pages.spill_run(*sort_run(lo)) for lo in range(0, n, memory_capacity)
    ]
    rows, ovcs, _levels = merge_spilled(
        spilled, spec.positions(table.schema), fan_in, pages,
        stats if engine == "reference" else ComparisonStats(),
        spec.directions, use_ovc,
    )
    return rows, ovcs, engine, fallback
