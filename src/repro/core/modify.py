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
Which executor then runs is decided in one place too,
:func:`bind_strategy`: it binds the packed-code kernels or, on auto's
fallback and under the reference engine, the instrumented executors,
and every path — this module, the enforcer's full sort and the
segment loop — runs its segments through the ``run`` it returns.

Input and output are both resident: the result's rows are the input's
own tuple objects in a new list.  Memory is bounded elsewhere, by one
loop (:class:`repro.core.external_modify.SegmentLoop`): in loads of
whole segments up to ``memory_capacity`` rows under
``Sort(memory_capacity=)``, one segment at a time in
:class:`repro.engine.modify_op.StreamingModify`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..exec.config import ExecutionConfig
from ..model import SortSpec, Table
from ..obs import LOG, METRICS, SLOWLOG, TRACER
from ..ovc.compare import compare_plain
from ..ovc.derive import project_ovcs
from ..ovc.stats import ComparisonStats
from ..sorting.internal import tournament_sort
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
    the key packer then raises ``TypeError`` (mixed types in one column,
    ``None``), :func:`bind_strategy` falls back to the reference
    executors under ``auto`` and re-raises under a forced ``fast``.
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
    _check_method(method)
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
    backward = plan.backward

    if backward:
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
    n = len(table.rows)
    strategy = _resolve_strategy(plan, method, n, offsets)
    name = strategy.name.lower()
    out_ovcs: list[tuple] | None = [] if use_ovc else None
    fallback = False

    if strategy is Strategy.NOOP:
        # Codes are projected onto the shorter key; nothing is compared.
        out_rows = list(table.rows)
        if use_ovc:
            out_ovcs = project_ovcs(table.ovcs, new_spec.arity)
        if perm is not None and engine == "fast":
            perm.extend(range(n))
    else:
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
        # Segment boundaries are computed exactly once per call, before
        # an executor is bound, so auto's fallback reuses them.
        if strategy in (Strategy.SEGMENT_SORT, Strategy.COMBINED):
            boundaries = _segments(table, plan, use_ovc, stats, heads)
        else:
            boundaries = [(0, n)] if n else []  # one pass over the input
        out_rows = []
        with TRACER.span(
            f"modify.{name}", rows=n, segments=len(boundaries)
        ) as sp:
            run, engine, fallback = bind_strategy(
                table, new_spec, plan, strategy, engine=engine,
                stats=stats, use_ovc=use_ovc, max_fan_in=cfg.max_fan_in,
                heads=heads, forced=cfg.engine == "fast",
            )
            sp.set(engine=engine, fallback=fallback)
            for lo, hi in boundaries:
                run(lo, hi, out_rows, out_ovcs, perm)
    if backward:
        _restore_tie_order(out_rows, out_ovcs, new_spec, table.schema, stats)
    result = Table(table.schema, out_rows, new_spec, out_ovcs)

    TRACER.annotate(strategy=name, engine=engine, fallback=fallback)
    if LOG.enabled:
        LOG.event(
            "modify.strategy", strategy=name, method=method,
            rows=len(table.rows), engine=engine, fallback=fallback,
            prefix_len=plan.prefix_len, merge_len=plan.merge_len,
        )
    return result, name, engine, fallback


def bind_strategy(
    table: Table,
    spec: SortSpec,
    plan: ModificationPlan | None,
    strategy: Strategy,
    *,
    engine: str,
    stats: ComparisonStats,
    use_ovc: bool = True,
    max_fan_in: int | None = None,
    heads: Sequence[int] | None = None,
    forced: bool = False,
) -> tuple[Callable[..., None], str, bool]:
    """The one place an executor is chosen: ``(run, engine, fallback)``.

    ``run(lo, hi, out_rows, out_ovcs, perm=None)`` appends rows ``[lo,
    hi)`` of ``table`` in ``spec`` order (and, from the packed-code
    kernels, their indices to ``perm``).  ``engine`` is the resolved one.
    ``"fast"`` packs the key here, so the packer's ``TypeError`` comes
    before any row moves: re-raised when ``forced``, else the reference
    executors are bound (``fallback``) — ``sort_segment`` /
    ``merge_preexisting_runs`` counting into ``stats`` with merge steps
    capped at ``max_fan_in``, or a tournament sort for an unordered
    input (``plan=None``).  ``heads`` are the merge kernels' head
    positions when the caller has them.
    """
    rows, ovcs = table.rows, table.ovcs
    positions = spec.positions(table.schema)
    fallback = False
    if engine == "fast":
        from ..fastpath.execute import bind

        try:
            run = bind(
                rows, ovcs, positions, spec.directions, plan, strategy,
                table, heads,
            )
        except TypeError:
            if forced:
                raise
            # The reference executors compare only values that meet in
            # a tournament, so they can still rank these keys.
            engine, fallback = "reference", True
        else:
            return run, engine, fallback

    if plan is None:

        def run(lo, hi, out_rows, out_ovcs, perm=None):
            got_rows, got_ovcs = tournament_sort(
                rows[lo:hi], positions, stats, spec.directions, use_ovc
            )
            out_rows.extend(got_rows)
            if out_ovcs is not None:
                out_ovcs.extend(got_ovcs)

        return run, engine, fallback

    out_project = _key_projector(positions, spec.directions)
    if strategy in (Strategy.SEGMENT_SORT, Strategy.FULL_SORT):
        p = plan.prefix_len if strategy is Strategy.SEGMENT_SORT else 0

        def run(lo, hi, out_rows, out_ovcs, perm=None):
            sort_segment(
                rows, ovcs, lo, hi, p, spec.arity, out_project, stats,
                out_rows, out_ovcs, use_ovc,
            )

        return run, engine, fallback

    in_spec = table.sort_spec
    in_project = _key_projector(
        in_spec.positions(table.schema), in_spec.directions
    )
    # MERGE_RUNS is one pass over the whole input, prefix columns (if
    # any) joining the infix in defining runs; COMBINED merges within
    # each prefix segment.
    respect_prefix = strategy is Strategy.COMBINED

    def run(lo, hi, out_rows, out_ovcs, perm=None):
        merge_preexisting_runs(
            rows, ovcs, lo, hi, plan, out_project, in_project, stats,
            out_rows, out_ovcs, use_ovc, respect_prefix, max_fan_in,
        )

    return run, engine, fallback


def _restore_tie_order(rows, ovcs, spec, schema, stats) -> None:
    """Put rows tied on ``spec`` back in input order, in place.

    A backward scan reverses the input, and every executor is stable,
    so each group of rows equal under ``spec`` arrives back to front.
    With codes, a group starts at each row whose offset is below the
    arity — found without a comparison, and the codes stay valid since
    rows of one group share their key.  Without codes, adjacent keys
    are compared (counted in ``stats``).
    """
    n = len(rows)
    if ovcs is not None:
        starts = head_positions(code_offsets(ovcs), spec.arity)
    else:
        project = _key_projector(spec.positions(schema), spec.directions)
        keys = [project(row) for row in rows]
        starts = [0] if n else []
        starts += [
            i for i in range(1, n) if compare_plain(keys[i - 1], keys[i], stats)
        ]
    for lo, hi in zip(starts, starts[1:] + [n]):
        if hi - lo > 1:
            rows[lo:hi] = rows[lo:hi][::-1]


def _check_method(method: str) -> None:
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {sorted(_METHODS)}")


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
    # COMBINED decompositions admit all four methods; estimate quickly.
    if plan.strategy is not Strategy.COMBINED or n == 0:
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


def _segments(table, plan, use_ovc, stats, heads=None):
    """Segment boundaries — from codes when available (inspecting only
    ``heads`` when the caller has them), else by comparing prefix
    columns of adjacent rows (counted)."""
    with TRACER.span("modify.classify", prefix_len=plan.prefix_len) as sp:
        boundaries = _segment_boundaries(table, plan, use_ovc, stats, heads)
        sp.set(segments=len(boundaries))
    if METRICS.enabled:
        hist = METRICS.histogram("modify.segment_rows")
        for lo, hi in boundaries:
            hist.observe(hi - lo)
    return boundaries


def _segment_boundaries(table, plan, use_ovc, stats, heads):
    n = len(table.rows)
    if use_ovc:
        return list(split_segments(table.ovcs, plan.prefix_len, n, heads))
    p = plan.prefix_len
    if p == 0 or n == 0:
        return [(0, n)] if n else []
    in_spec = table.sort_spec
    in_project = _key_projector(
        in_spec.positions(table.schema), in_spec.directions
    )
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
