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

Two memory models coexist here deliberately.  ``memory_capacity`` is
the *simulated* sort-memory size (in rows) whose spill economics the
paper's hypotheses are about; an :class:`~repro.exec.ExecutionConfig`
``memory_budget`` is the *actual* byte budget of this process — when
set, buffered output spills to real disk via the governed sink, run
generation and merge buffers are charged to the accountant, and merge
waves shrink (never below binary) while the budget is exceeded.
"""

from __future__ import annotations

from typing import Sequence

from ..exec.buffers import GovernedSink
from ..exec.config import ExecutionConfig
from ..exec.memory import MemoryAccountant, activate
from ..exec.spill import SpillManager
from ..model import SortSpec, Table
from ..obs import METRICS
from ..ovc.stats import ComparisonStats
from ..sorting.external import ExternalMergeSort
from ..sorting.merge import _key_projector
from ..storage.pages import PageManager
from .analysis import Strategy, analyze_order_modification
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

    ``config`` carries the execution knobs (engine, byte budget — see
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

    ``config.memory_budget`` (bytes, the *process* budget — distinct
    from the simulated row-count ``memory_capacity``) activates real
    governance: buffered output spills to disk when the budget is
    exceeded, and oversized-segment merge waves shrink to half the
    configured ``fan_in`` (never below 2) while under pressure.

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
        # delegate wholesale (modify_sort_order applies the governance
        # and the engine rule itself, so no double activation here).
        return modify_sort_order(
            table, new_spec, method=method, stats=stats, config=cfg
        )

    engine = resolve_engine(cfg, counters=stats is not None)
    stats = stats if stats is not None else ComparisonStats()
    if not cfg.governed:
        return _modify_external(
            table, new_spec, memory_capacity, fan_in, pages, method,
            stats, run_generation, cfg, engine, None, None,
        )
    accountant = MemoryAccountant(cfg.memory_budget)
    with SpillManager(cfg.spill_dir) as spill, activate(accountant):
        sink = GovernedSink(accountant, spill, category="extmodify.output")
        return _modify_external(
            table, new_spec, memory_capacity, fan_in, pages, method,
            stats, run_generation, cfg, engine, accountant, sink,
        )


def _modify_external(
    table: Table,
    new_spec: SortSpec,
    memory_capacity: int,
    fan_in: int,
    pages: PageManager,
    method: str,
    stats: ComparisonStats,
    run_generation: str,
    cfg: ExecutionConfig,
    engine: str,
    accountant: MemoryAccountant | None,
    sink: GovernedSink | None,
) -> Table:
    plan = analyze_order_modification(table.sort_spec, new_spec)

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
        if sink is not None:
            sink.absorb_iter(result.rows, result.ovcs)
            out_rows, out_ovcs = sink.materialize()
            return Table(table.schema, out_rows, new_spec, out_ovcs)
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

    def fast_in_memory(lo: int, hi: int, seg_rows: list, seg_ovcs: list) -> bool:
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
        seg_rows.extend(fast_rows)
        seg_ovcs.extend(fast_ovcs)
        return True

    for lo, hi in split_segments(ovcs, prefix_for_segments, len(rows)):
        size = hi - lo
        seg_rows: list[tuple] = out_rows if sink is None else []
        seg_ovcs: list[tuple] = out_ovcs if sink is None else []
        if size <= memory_capacity:
            if engine == "fast" and fast_in_memory(lo, hi, seg_rows, seg_ovcs):
                pass  # done; otherwise the reference executors below
            elif use_merge:
                merge_preexisting_runs(
                    rows, ovcs, lo, hi, plan, out_project, in_project,
                    stats, seg_rows, seg_ovcs,
                    respect_prefix=plan.strategy is Strategy.COMBINED,
                )
            else:
                sort_segment(
                    rows, ovcs, lo, hi, plan.prefix_len, new_spec.arity,
                    out_project, stats, seg_rows, seg_ovcs,
                )
            if sink is not None:
                sink.absorb(seg_rows, seg_ovcs)
            continue
        # Oversized segment.
        if use_merge:
            # Pre-existing runs merge in waves of the fan-in; every
            # intermediate wave writes its output and reads it back.
            # Under byte-budget pressure the wave width halves (never
            # below binary), trading extra merge levels for footprint.
            import math

            effective_fan_in = fan_in
            if accountant is not None and accountant.over_budget():
                effective_fan_in = max(2, fan_in // 2)
                if METRICS.enabled:
                    METRICS.counter("exec.fan_in_reduced").inc()
            run_boundary = plan.prefix_len + plan.infix_len
            n_runs = sum(
                1 for i in range(lo + 1, hi) if ovcs[i][0] < run_boundary
            ) + 1
            if n_runs > effective_fan_in:
                levels = math.ceil(math.log(n_runs, effective_fan_in))
                for _ in range(max(levels - 1, 0)):
                    pages.spill_run(rows[lo:hi]).read()
            merge_preexisting_runs(
                rows, ovcs, lo, hi, plan, out_project, in_project,
                stats, seg_rows, seg_ovcs,
                respect_prefix=plan.strategy is Strategy.COMBINED,
                max_fan_in=effective_fan_in,
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
            seg_rows.extend(result.rows)
            sorted_ovcs = list(result.ovcs)
            if sorted_ovcs and plan.prefix_len > 0:
                sorted_ovcs[0] = head_ovc
            seg_ovcs.extend(sorted_ovcs)
        if sink is not None:
            sink.absorb(seg_rows, seg_ovcs)
    if sink is not None:
        out_rows, out_ovcs = sink.materialize()
        if out_ovcs is None:
            out_ovcs = []  # empty governed input: match the ungoverned contract
    return Table(table.schema, out_rows, new_spec, out_ovcs)
