"""Memory-bounded order modification with spill accounting.

Hypothesis 1 made executable: with a memory budget, a whole-input sort
of a large table must spill runs (external merge sort), while segmented
execution sorts one segment at a time — if every segment fits in
memory, *no* spill happens at all ("segmented sorting can save a merge
level, even turning external merge sort into internal sorting").

:func:`modify_sort_order_external` wraps the in-memory executors:

* segments that fit in memory run exactly as in
  :func:`repro.core.modify.modify_sort_order`;
* an oversized segment under ``segment_sort`` falls back to a true
  external merge sort of that segment (runs spilled and merged with
  the configured fan-in);
* an oversized segment under ``combined``/``merge_runs`` merges its
  pre-existing runs in waves of ``fan_in`` (graceful degradation),
  charging intermediate wave outputs to the page manager.

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
from ..ovc.stats import ComparisonStats
from ..sorting.external import ExternalMergeSort
from ..sorting.merge import _key_projector
from ..storage.pages import PageManager
from .analysis import ModificationPlan, Strategy, analyze_order_modification
from .classify import split_segments
from .merge_runs import merge_preexisting_runs
from .modify import modify_sort_order, resolve_engine
from .segmented import sort_segment


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

    ``config`` carries the execution knobs (the engine — see
    :class:`repro.exec.ExecutionConfig`).
    The engine follows :func:`~repro.core.modify.resolve_engine`, as in
    :func:`~repro.core.modify.modify_sort_order`: ``auto`` executes the
    in-memory segments through the packed-code kernels
    (:mod:`repro.fastpath`) — same rows and codes, no comparison counts
    — unless a ``stats`` collector was passed, falling back to the
    reference executors on keys the key packer cannot rank.  Oversized
    segments always take the reference path: spill accounting and
    capped merge waves are the point of this function, and the fast
    kernels do not model them.

    Stability: the structural strategies (merge/segment paths) are
    stable like their in-memory counterparts; segments or inputs that
    fall back to a true external sort inherit replacement selection's
    lack of stability, as in classic external merge sorts.
    """
    if memory_capacity < 2:
        raise ValueError("memory capacity must allow at least two rows")
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

    engine = resolve_engine(cfg, counters=stats is not None)
    stats = stats if stats is not None else ComparisonStats()
    return _modify_external(
        table, new_spec, plan, memory_capacity, fan_in, pages, method,
        stats, run_generation, cfg, engine,
    )


def _modify_external(
    table: Table,
    new_spec: SortSpec,
    plan: ModificationPlan,
    memory_capacity: int,
    fan_in: int,
    pages: PageManager,
    method: str,
    stats: ComparisonStats,
    run_generation: str,
    cfg: ExecutionConfig,
    engine: str,
) -> Table:
    if plan.strategy is Strategy.FULL_SORT or method == "full_sort":
        sorter = ExternalMergeSort(
            new_spec.positions(table.schema),
            memory_capacity=memory_capacity,
            fan_in=fan_in,
            run_generation=run_generation,
            directions=new_spec.directions,
            page_manager=pages,
        )
        result = sorter.sort(table.rows)
        stats.merge(result.total_stats)
        return Table(table.schema, result.rows, new_spec, result.ovcs)

    out_positions = new_spec.positions(table.schema)
    out_project = _key_projector(out_positions, new_spec.directions)
    in_positions = table.sort_spec.positions(table.schema)
    in_project = _key_projector(in_positions, table.sort_spec.directions)

    rows, ovcs = table.rows, table.ovcs
    out_rows: list[tuple] = []
    out_ovcs: list[tuple] = []

    use_merge = plan.strategy in (Strategy.COMBINED, Strategy.MERGE_RUNS) and (
        method in ("auto", "combined", "merge_runs")
    )
    prefix_for_segments = plan.prefix_len if plan.strategy is not Strategy.MERGE_RUNS else 0

    def fast_in_memory(lo: int, hi: int) -> bool:
        """Run one in-memory segment on the packed-code kernels; False
        is ``engine="auto"``'s cue to use the reference executors."""
        from ..fastpath.execute import fast_segment

        try:
            fast_rows, fast_ovcs = fast_segment(
                rows[lo:hi], ovcs[lo:hi], plan, new_spec, out_positions,
                plan.strategy if use_merge else Strategy.SEGMENT_SORT,
            )
        except TypeError:
            if cfg.engine == "fast":
                raise
            return False
        out_rows.extend(fast_rows)
        out_ovcs.extend(fast_ovcs)
        return True

    for lo, hi in split_segments(ovcs, prefix_for_segments, len(rows)):
        size = hi - lo
        if size <= memory_capacity:
            if engine == "fast" and fast_in_memory(lo, hi):
                pass  # done; otherwise the reference executors below
            elif use_merge:
                merge_preexisting_runs(
                    rows, ovcs, lo, hi, plan, out_project, in_project,
                    stats, out_rows, out_ovcs,
                    respect_prefix=plan.strategy is Strategy.COMBINED,
                )
            else:
                sort_segment(
                    rows, ovcs, lo, hi, plan.prefix_len, new_spec.arity,
                    out_project, stats, out_rows, out_ovcs,
                )
            continue
        # Oversized segment.
        if use_merge:
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
            merge_preexisting_runs(
                rows, ovcs, lo, hi, plan, out_project, in_project,
                stats, out_rows, out_ovcs,
                respect_prefix=plan.strategy is Strategy.COMBINED,
                max_fan_in=fan_in,
            )
        else:
            head_ovc = ovcs[lo]
            sorter = ExternalMergeSort(
                out_positions,
                memory_capacity=memory_capacity,
                fan_in=fan_in,
                run_generation=run_generation,
                directions=new_spec.directions,
                page_manager=pages,
            )
            result = sorter.sort(rows[lo:hi])
            stats.merge(result.total_stats)
            out_rows.extend(result.rows)
            sorted_ovcs = list(result.ovcs)
            if sorted_ovcs and plan.prefix_len > 0:
                sorted_ovcs[0] = head_ovc
            out_ovcs.extend(sorted_ovcs)
    return Table(table.schema, out_rows, new_spec, out_ovcs)
