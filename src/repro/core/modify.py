"""Public entry point: modify a table's sort order.

:func:`modify_sort_order` analyzes the existing vs. desired sort
orders, picks (or is told) a strategy, and executes it:

* ``noop`` — the existing order satisfies the request; codes are
  projected onto the (possibly shorter) new key without comparisons.
* ``segment_sort`` — segmented sorting (Figure 11 method 1).
* ``merge_runs`` — merge pre-existing runs over the whole input,
  ignoring any shared prefix (Figure 11 method 2).
* ``combined`` — segments from the prefix, pre-existing runs merged
  within each segment (Figure 11 method 3).
* ``full_sort`` — tournament sort from scratch, the honest fallback.
* ``auto`` — compile-time analysis plus the cost model decide.

Orthogonal to the strategy, an :class:`~repro.exec.ExecutionConfig`
selects *how* the chosen strategy executes — engine (reference vs.
packed-code fast path) and merge fan-in cap::

    from repro.exec import ExecutionConfig

    cfg = ExecutionConfig(engine="fast")
    result = modify_sort_order(table, new_order, config=cfg)

Which engine ``engine="auto"`` means is decided in exactly one place,
:func:`resolve_engine`; every operator, planner and cache module asks
it (directly, or through :func:`repro.core.enforce.enforce_order`).

Input and output are both resident: the result's rows are the input's
own tuple objects in a new list.  Memory is bounded elsewhere — one
segment at a time in :class:`repro.engine.modify_op.StreamingModify`,
by ``memory_capacity`` in :func:`repro.core.external_modify.
modify_sort_order_external`.
"""

from __future__ import annotations

from typing import Sequence

from ..exec.config import ExecutionConfig
from ..model import SortSpec, Table
from ..obs import LOG, METRICS, SLOWLOG, TRACER
from ..ovc.derive import project_ovcs
from ..ovc.stats import ComparisonStats
from ..sorting.merge import _key_projector
from .analysis import ModificationPlan, Strategy, analyze_order_modification
from .classify import code_offsets, count_below, head_positions, split_segments
from .cost import estimate_costs
from .merge_runs import merge_preexisting_runs
from .segmented import sort_segment

_METHODS = {
    "auto",
    "noop",
    "segment_sort",
    "merge_runs",
    "combined",
    "full_sort",
}


def resolve_engine(
    cfg: ExecutionConfig, *, use_ovc: bool = True, counters: bool = False
) -> str:
    """The engine that runs under ``cfg``: ``"fast"`` or ``"reference"``.

    The one meaning of ``engine="auto"``: the packed-code kernels,
    unless something only the reference executors provide was asked
    for — comparison ``counters`` (a ``stats=`` collector on
    :func:`modify_sort_order`), execution without offset-value codes,
    or a ``max_fan_in`` cap.  A forced engine is returned as is.  Where
    a fast kernel then raises the key packer's ``TypeError`` (mixed types in
    one column, ``None``), ``auto`` callers fall back to the reference
    executors and a forced ``fast`` re-raises.
    """
    if cfg.engine != "auto":
        return cfg.engine
    if counters or not use_ovc or cfg.max_fan_in is not None:
        return "reference"
    return "fast"


def modify_sort_order(
    table: Table,
    new_order: SortSpec | Sequence[str],
    method: str = "auto",
    use_ovc: bool = True,
    stats: ComparisonStats | None = None,
    config: ExecutionConfig | None = None,
) -> Table:
    """Return ``table``'s rows sorted on ``new_order``.

    The input table must be sorted (per its ``sort_spec``); with
    ``use_ovc`` it must carry offset-value codes (derived on demand via
    :meth:`Table.with_ovcs`).  The result carries fresh codes for the
    new order when ``use_ovc`` is set.

    ``method`` forces a strategy; ``auto`` uses the compile-time
    analysis and, where the decomposition leaves a choice, the cost
    model.  Stable strategies preserve the input order among rows equal
    under the new key.

    ``config`` governs execution (see :class:`repro.exec.
    ExecutionConfig`); when omitted, the environment-aware default
    applies.  Its fields:

    * ``engine`` — ``reference`` (instrumented), ``fast`` (packed-code
      kernels, bit-identical output, no counters), or ``auto`` — fast
      unless a ``stats`` collector was passed, ``use_ovc`` is off, or a
      fan-in cap is configured (:func:`resolve_engine`).  A forced
      ``fast`` engine leaves any passed ``stats`` untouched and
      executes a fan-in cap as a single-wave merge.  With
      ``engine="auto"``, key columns the key packer cannot rank
      (mixed value types, ``None``) fall back to the reference
      executors — reusing the already-computed segment boundaries, so
      classification runs exactly once per call; a forced ``fast``
      engine propagates the ``TypeError``.
    * ``max_fan_in`` — caps the runs merged per step (graceful
      degradation to multi-step merges beyond it).
    """
    return _modify_sort_order(table, new_order, method, use_ovc, stats, config)[0]


def _modify_sort_order(
    table: Table,
    new_order: SortSpec | Sequence[str],
    method: str,
    use_ovc: bool,
    stats: ComparisonStats | None,
    config: ExecutionConfig | None,
    perm: list[int] | None = None,
) -> tuple[Table, str, bool]:
    """:func:`modify_sort_order`, also reporting ``(engine, fallback)``:
    the engine that produced the result, and whether it was
    ``auto``'s reference fallback on unpackable keys.  A ``perm`` list
    is filled with the output as indices into ``table.rows`` when a
    fast kernel produced it on a forward scan, and left empty otherwise."""
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {sorted(_METHODS)}")
    cfg = config if config is not None else ExecutionConfig.default()
    if cfg.engine == "fast" and not use_ovc:
        raise ValueError("the fast engine requires offset-value codes (use_ovc=True)")
    if table.sort_spec is None:
        raise ValueError("input table must declare its sort order")
    new_spec = new_order if isinstance(new_order, SortSpec) else SortSpec(new_order)
    with LOG.query_scope():
        mark = SLOWLOG.mark()
        with TRACER.span(
            "modify",
            rows=len(table.rows),
            method=method,
            use_ovc=use_ovc,
        ):
            result, strategy, engine, fallback = _modify(
                table, new_spec, method, use_ovc, stats, cfg, perm
            )
        SLOWLOG.record(
            mark, "modify", strategy=strategy, stats=stats,
            rows=len(table.rows), engine=engine, fallback=fallback,
        )
        return result, engine, fallback


def _modify(
    table: Table,
    new_spec: SortSpec,
    method: str,
    use_ovc: bool,
    stats: ComparisonStats | None,
    cfg: ExecutionConfig,
    perm: list[int] | None = None,
) -> tuple[Table, str, str, bool]:
    """Plan, pick the executor, run it; returns ``(table, strategy,
    engine, fallback)`` with the last two as they turned out."""
    plan = analyze_order_modification(table.sort_spec, new_spec)
    engine = resolve_engine(cfg, use_ovc=use_ovc, counters=stats is not None)
    stats = stats if stats is not None else ComparisonStats()

    if plan.backward:
        # Read the input back to front (comparison-free, codes kept)
        # and re-plan against the reversed order.
        from .backward import reverse_table, reversed_spec

        perm = None  # indices into the reversed copy would mean nothing
        with TRACER.span("modify.backward", rows=len(table.rows)):
            if use_ovc:
                table = reverse_table(table.with_ovcs(), stats)
            else:
                table = Table(
                    table.schema,
                    list(reversed(table.rows)),
                    reversed_spec(table.sort_spec),
                )
        plan = analyze_order_modification(
            table.sort_spec, new_spec, allow_backward=False
        )

    if use_ovc:
        table.with_ovcs()

    # One pass over the old codes serves the strategy choice, the
    # segment boundaries and the fast merge kernels' row classes.
    offsets = None
    if plan.merge_len and table.ovcs:
        offsets = code_offsets(table.ovcs)
    strategy = _resolve_strategy(plan, method, len(table), offsets)
    in_project = _key_projector(
        table.sort_spec.positions(table.schema), table.sort_spec.directions
    )

    # The rows Figure 6 sends through the merge logic, for the fast
    # merge kernels; segment starts are among them.
    heads: list[int] | None = None
    if (
        engine == "fast"
        and offsets is not None
        and strategy in (Strategy.MERGE_RUNS, Strategy.COMBINED)
    ):
        heads = head_positions(
            offsets, plan.prefix_len + plan.infix_len + plan.merge_len
        )

    # Segment boundaries are computed exactly once per call and shared
    # by every executor — the fast path and the reference path
    # (including the engine="auto" TypeError fallback, which must not
    # re-classify the input it already classified).
    boundaries: list[tuple[int, int]] | None = None
    if strategy in (Strategy.SEGMENT_SORT, Strategy.COMBINED):
        boundaries = _segments(table, plan, use_ovc, in_project, stats, heads)

    result = None
    fallback = False
    if engine == "fast":
        from ..fastpath.execute import fast_modify

        try:
            result = fast_modify(
                table, new_spec, plan, strategy,
                segments=boundaries, heads=heads, perm=perm,
            )
        except TypeError:
            if cfg.engine == "fast":
                raise
            if perm:
                perm.clear()
            # engine="auto" met key values the key packer cannot rank
            # (mixed types in one column, None): the reference
            # executors compare only values that actually meet in a
            # tournament, so they can still succeed — on the segment
            # boundaries already computed above.
            engine, fallback = "reference", True
    if result is None:
        result = _reference_modify(
            table, new_spec, plan, strategy, boundaries, use_ovc, stats,
            cfg.max_fan_in, in_project,
        )

    name = strategy.name.lower()
    TRACER.annotate(strategy=name, engine=engine, fallback=fallback)
    if LOG.enabled:
        LOG.event(
            "modify.strategy",
            strategy=name,
            method=method,
            rows=len(table.rows),
            engine=engine,
            fallback=fallback,
            prefix_len=plan.prefix_len,
            merge_len=plan.merge_len,
        )
    return result, name, engine, fallback


def _reference_modify(
    table: Table,
    new_spec: SortSpec,
    plan: ModificationPlan,
    strategy: Strategy,
    boundaries: list[tuple[int, int]] | None,
    use_ovc: bool,
    stats: ComparisonStats,
    max_fan_in: int | None,
    in_project,
) -> Table:
    """Execute ``strategy`` on the instrumented reference executors."""
    rows, ovcs = table.rows, table.ovcs
    n = len(rows)
    out_project = _key_projector(
        new_spec.positions(table.schema), new_spec.directions
    )
    out_rows: list[tuple] = []
    out_ovcs: list[tuple] | None = [] if use_ovc else None

    if strategy is Strategy.NOOP:
        out_rows = list(rows)
        if use_ovc:
            out_ovcs = project_ovcs(ovcs, new_spec.arity)
        return Table(table.schema, out_rows, new_spec, out_ovcs)

    if strategy is Strategy.FULL_SORT:
        with TRACER.span("modify.full_sort", rows=n):
            for lo, hi in ((0, n),) if n else ():
                sort_segment(
                    rows, ovcs, lo, hi, 0, new_spec.arity, out_project,
                    stats, out_rows, out_ovcs, use_ovc,
                )
        return Table(table.schema, out_rows, new_spec, out_ovcs)

    if strategy is Strategy.SEGMENT_SORT:
        with TRACER.span("modify.segment_sort", segments=len(boundaries)):
            for lo, hi in boundaries:
                sort_segment(
                    rows, ovcs, lo, hi, plan.prefix_len, new_spec.arity,
                    out_project, stats, out_rows, out_ovcs, use_ovc,
                )
        return Table(table.schema, out_rows, new_spec, out_ovcs)

    if strategy is Strategy.MERGE_RUNS:
        # One pass over the whole input; prefix columns (if any) join
        # the infix in defining runs.
        with TRACER.span("modify.merge_runs", rows=n):
            if n:
                merge_preexisting_runs(
                    rows, ovcs, 0, n, plan, out_project, in_project,
                    stats, out_rows, out_ovcs, use_ovc, respect_prefix=False,
                    max_fan_in=max_fan_in,
                )
        return Table(table.schema, out_rows, new_spec, out_ovcs)

    # COMBINED: segments from the prefix, merge runs within each.
    with TRACER.span("modify.combined", segments=len(boundaries)):
        for lo, hi in boundaries:
            merge_preexisting_runs(
                rows, ovcs, lo, hi, plan, out_project, in_project,
                stats, out_rows, out_ovcs, use_ovc, respect_prefix=True,
                max_fan_in=max_fan_in,
            )
    return Table(table.schema, out_rows, new_spec, out_ovcs)


def _resolve_strategy(
    plan: ModificationPlan, method: str, n: int, offsets: Sequence[int] | None
) -> Strategy:
    """The strategy to run on ``n`` rows whose old code offsets are
    ``offsets`` (:func:`~repro.core.classify.code_offsets`; ``None``
    without codes or without a merge decomposition)."""
    if method == "noop":
        if plan.strategy is not Strategy.NOOP:
            raise ValueError(
                "noop requested but the existing order does not satisfy "
                f"the desired order ({plan.describe()})"
            )
        return Strategy.NOOP
    if method == "full_sort":
        return Strategy.FULL_SORT
    if method == "segment_sort":
        if plan.prefix_len == 0 and plan.strategy is not Strategy.NOOP:
            raise ValueError("segment_sort requires a shared key prefix")
        return Strategy.SEGMENT_SORT
    if method == "merge_runs":
        if plan.merge_len == 0:
            raise ValueError(
                "merge_runs requires pre-existing runs "
                f"(plan: {plan.describe()})"
            )
        return Strategy.MERGE_RUNS
    if method == "combined":
        if plan.merge_len == 0 or plan.prefix_len == 0:
            raise ValueError(
                "combined requires both a shared prefix and merge keys "
                f"(plan: {plan.describe()})"
            )
        return Strategy.COMBINED
    # auto: trust the structural analysis; consult the cost model when
    # several structural strategies apply.
    if plan.strategy in (Strategy.NOOP, Strategy.FULL_SORT):
        return plan.strategy
    if plan.strategy is Strategy.SEGMENT_SORT:
        return plan.strategy
    if plan.strategy is Strategy.MERGE_RUNS:
        return plan.strategy
    # COMBINED decompositions admit all four methods; estimate quickly.
    if n == 0:
        return plan.strategy
    if offsets is not None:
        n_segments = count_below(offsets, plan.prefix_len)
        n_runs = count_below(offsets, plan.prefix_len + plan.infix_len)
    else:
        n_segments = max(1, int(n ** 0.5))
        n_runs = n_segments
    estimates = {e.strategy: e for e in estimate_costs(plan, n, n_segments, n_runs)}
    # Exploiting both structures is the paper's consistent winner
    # (Figure 11); the cost-based decision of Section 3.5 is whether to
    # exploit the pre-existing order at all, so only a clear margin for
    # sorting from scratch overrides the structural plan.
    planned = estimates[Strategy.COMBINED]
    if estimates[Strategy.FULL_SORT].total < 0.5 * planned.total:
        return Strategy.FULL_SORT
    return Strategy.COMBINED


def _segments(table, plan, use_ovc, in_project, stats, heads=None):
    """Segment boundaries — from codes when available (inspecting only
    ``heads`` when the caller has them), else by comparing prefix
    columns of adjacent rows (counted)."""
    with TRACER.span("modify.classify", prefix_len=plan.prefix_len) as sp:
        boundaries = _segment_boundaries(
            table, plan, use_ovc, in_project, stats, heads
        )
        sp.set(segments=len(boundaries))
    if METRICS.enabled:
        hist = METRICS.histogram("modify.segment_rows")
        for lo, hi in boundaries:
            hist.observe(hi - lo)
    return boundaries


def _segment_boundaries(table, plan, use_ovc, in_project, stats, heads):
    n = len(table.rows)
    if use_ovc:
        return list(split_segments(table.ovcs, plan.prefix_len, n, heads))
    p = plan.prefix_len
    if p == 0 or n == 0:
        return [(0, n)] if n else []
    boundaries = []
    start = 0
    prev = in_project(table.rows[0])
    for i in range(1, n):
        cur = in_project(table.rows[i])
        stats.row_comparisons += 1
        for c in range(p):
            stats.column_comparisons += 1
            if cur[c] != prev[c]:
                boundaries.append((start, i))
                start = i
                break
        prev = cur
    boundaries.append((start, n))
    return boundaries
