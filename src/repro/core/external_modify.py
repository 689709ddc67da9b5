"""Memory-bounded order modification with spill accounting.

Hypothesis 1 made executable: with a memory budget, a whole-input sort
of a large table must spill runs (external merge sort), while segmented
execution sorts one segment at a time — if every segment fits in
memory, *no* spill happens at all ("segmented sorting can save a merge
level, even turning external merge sort into internal sorting").

Two routines live here:

* :func:`external_sort`, the one stable external sort, behind the
  enforcer's full sort (``Sort(memory_capacity=)`` over an unordered
  child) and every oversized sort segment below;
* :class:`SegmentLoop`, the one memory-bounded order modification,
  behind ``Sort(memory_capacity=)`` over an ordered child and
  :class:`~repro.engine.modify_op.StreamingModify` (no capacity): whole
  segments packed into memory loads, oversized ones through storage.

All spill traffic lands in the supplied :class:`PageManager`.

There is one memory model here: ``memory_capacity`` is the *simulated*
sort-memory size (in rows) whose spill economics the paper's hypotheses
are about, and the page manager counts the I/O it implies.  Rows stay
resident Python lists either way.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator

from ..exec.config import ExecutionConfig
from ..model import Schema, SortSpec, Table
from ..obs import LOG, METRICS, TRACER
from ..ovc.stats import ComparisonStats
from ..sorting.external import merge_spilled
from ..storage.pages import PageManager
from .analysis import ModificationPlan, Strategy
from .classify import split_segments
from .modify import _resolve_strategy, bind_strategy, resolve_engine

#: A memory load: the table holding its rows and its segments' row
#: ranges in that table (one oversized segment goes alone).
Load = tuple[Table, list[tuple[int, int]]]


class SegmentLoop:
    """Modify a forward-planned order one memory load at a time.

    ``plan`` takes ``in_spec`` to ``spec`` without a backward scan or a
    no-op.  A known ``method`` forces a strategy as
    :func:`~repro.core.modify.modify_sort_order` resolves it (same
    ``ValueError`` when the orders do not admit it); ``auto`` keeps the
    structural plan.  The engine
    follows :func:`~repro.core.modify.resolve_engine`; ``stats``
    receives comparisons only when that is the reference engine.  With
    ``memory_capacity=None`` every segment is its own load and nothing
    spills.

    The input is read as segments, found from codes as
    :func:`~repro.core.classify.split_segments` finds them, and whole
    segments are packed into memory loads of at most ``memory_capacity``
    rows, each run on one executor :func:`~repro.core.modify.
    bind_strategy` binds.  A segment larger than the capacity goes to
    storage: a sort segment as one :func:`external_sort`, a merge
    segment by merging its pre-existing runs in waves of ``fan_in`` on
    the reference merge capped there, charging each intermediate wave.

    :meth:`run` takes the loads of :meth:`resident` (a table on storage,
    bound once so its remembered key fields serve every load) or of
    :meth:`streamed` (``(row, ovc)`` pairs, each load bound as its own
    table), appends each load's output to ``out_rows`` / ``out_ovcs``
    and then yields, so a streaming caller can hand it on.  Afterwards
    :attr:`peak_rows` is the most rows held unspilled, and
    :attr:`engine` / :attr:`fallback` say which engine the sort
    executors ran (``reference`` if any did, or if only capped merges
    ran) and whether that was ``auto``'s fallback.
    """

    def __init__(
        self,
        schema: Schema,
        in_spec: SortSpec,
        spec: SortSpec,
        plan: ModificationPlan,
        *,
        memory_capacity: int | None = None,
        fan_in: int = 16,
        pages: PageManager | None = None,
        method: str = "auto",
        stats: ComparisonStats | None = None,
        config: ExecutionConfig | None = None,
    ) -> None:
        cfg = config if config is not None else ExecutionConfig.default()
        self.strategy = (
            plan.strategy if method == "auto"
            else _resolve_strategy(plan, method, 0, None)
        )
        self._schema, self._in_spec, self._spec, self._plan = (
            schema, in_spec, spec, plan,
        )
        self._method = method
        self._capacity = memory_capacity
        self._fan_in = fan_in
        self._pages = pages if pages is not None else PageManager()
        self._engine = resolve_engine(cfg)
        self._stats = (
            stats if stats is not None and self._engine == "reference"
            else ComparisonStats()
        )
        self._forced = cfg.engine == "fast"
        self._max_fan_in = cfg.max_fan_in
        self._merging = self.strategy in (Strategy.MERGE_RUNS, Strategy.COMBINED)
        self._prefix = (
            plan.prefix_len
            if self.strategy in (Strategy.SEGMENT_SORT, Strategy.COMBINED) else 0
        )
        # The capped merge last bound, and the table it is bound to: a
        # resident input binds once, a streamed one per segment.
        self._capped: tuple[Table, Callable[..., None]] | None = None
        self._ran: list[tuple[str, bool]] = []
        self.peak_rows = 0
        self.engine = self._engine
        self.fallback = False

    def resident(self, table: Table) -> Iterator[Load]:
        """The loads of ``table`` (sorted on ``in_spec``, coded) read from
        storage: consecutive segments packed up to the capacity.

        Lazily: each load runs right after its codes were read, while
        they are still in cache (reading every boundary first cost ~9 %
        on 1 024 segments of 64 rows)."""
        cap = self._capacity
        segments: list[tuple[int, int]] = []
        load_lo = 0
        for lo, hi in split_segments(table.ovcs, self._prefix, len(table.rows)):
            if segments and (cap is None or hi - load_lo > cap):
                yield table, segments
                segments, load_lo = [], lo
            segments.append((lo, hi))
        if segments:
            yield table, segments

    def streamed(
        self, pairs: Iterable[tuple[tuple, tuple | None]]
    ) -> Iterator[Load]:
        """The loads of a coded stream sorted on ``in_spec``, fed row by
        row.  Rows held unspilled never exceed the capacity: finished
        segments leave as one load when the next row would overflow it,
        and a segment that outgrows memory alone goes to storage, its
        rows charged one write as they arrive (a stream is not on
        storage)."""
        cap, boundary = self._capacity, self._prefix
        schema, in_spec, pages = self._schema, self._in_spec, self._pages
        rows: list[tuple] = []
        ovcs: list[tuple] = []
        # Finished segments in the buffer; the open one starts at
        # ``start``; ``written`` of its rows are charged (0: in memory).
        segments: list[tuple[int, int]] = []
        start = written = 0
        for row, ovc in pairs:
            if ovc is None:
                raise ValueError(
                    "memory-bounded modification requires offset-value codes"
                )
            if rows and boundary and ovc[0] < boundary:
                if cap is None or written:
                    if written:
                        pages.spill_run(rows[written:])
                    yield Table(schema, rows, in_spec, ovcs), [(0, len(rows))]
                    rows, ovcs, written = [], [], 0
                else:
                    segments.append((start, len(rows)))
                start = len(rows)
            if cap is not None and len(rows) - written == cap:
                if segments:
                    yield (
                        Table(schema, rows[:start], in_spec, ovcs[:start]),
                        segments,
                    )
                    rows, ovcs, segments = rows[start:], ovcs[start:], []
                    start = 0
                else:
                    pages.spill_run(rows[written:])
                    written = len(rows)
            rows.append(row)
            ovcs.append(ovc)
        if written:
            pages.spill_run(rows[written:])
            segments = [(0, len(rows))]
        elif rows:
            segments.append((start, len(rows)))
        if segments:
            yield Table(schema, rows, in_spec, ovcs), segments

    def run(
        self, loads: Iterable[Load], out_rows: list, out_ovcs: list
    ) -> Iterator[None]:
        """The one loop: each load in memory, or its oversized segment
        through storage; yields after each."""
        cap = self._capacity
        n_rows = 0
        bound_to = run = None  # the table the executor ``run`` is bound to
        for table, segments in loads:
            lo, hi = segments[0][0], segments[-1][1]
            if cap is not None and hi - lo > cap:
                held = cap
                with TRACER.span("modify.spill", rows=hi - lo) as sp:
                    engine, fallback = self._spill(
                        table, lo, hi, out_rows, out_ovcs
                    )
                    sp.set(engine=engine, fallback=fallback)
            else:
                held = hi - lo
                if table is not bound_to:
                    with TRACER.span("modify.bind", rows=len(table.rows)) as sp:
                        run, engine, fallback = bind_strategy(
                            table, self._spec, self._plan, self.strategy,
                            engine=self._engine, stats=self._stats,
                            max_fan_in=self._max_fan_in, forced=self._forced,
                        )
                        sp.set(engine=engine, fallback=fallback)
                    bound_to = table
                    self._ran.append((engine, fallback))
                for seg_lo, seg_hi in segments:
                    run(seg_lo, seg_hi, out_rows, out_ovcs)
            if held > self.peak_rows:
                self.peak_rows = held
            if METRICS.enabled:
                METRICS.gauge("streaming.buffered_rows").set(held)
            n_rows += hi - lo
            yield
        self.engine = max((e for e, _ in self._ran), default="reference")
        self.fallback = any(f for _, f in self._ran)
        if LOG.enabled:
            LOG.event(
                "modify.strategy", strategy=self.strategy.name.lower(),
                method=self._method, rows=n_rows, engine=self.engine,
                fallback=self.fallback, prefix_len=self._plan.prefix_len,
                merge_len=self._plan.merge_len,
            )

    def _spill(
        self, table: Table, lo: int, hi: int, out_rows, out_ovcs
    ) -> tuple[str, bool]:
        """One segment larger than memory, rows ``[lo, hi)`` of ``table``;
        returns the ``(engine, fallback)`` it ran on."""
        rows, ovcs, plan = table.rows, table.ovcs, self._plan
        cap, fan_in, pages = self._capacity, self._fan_in, self._pages
        if not self._merging:
            # The segment as its own table: its keys are packed (and a
            # mix of types refused) for this segment alone.
            sorted_rows, sorted_ovcs, ran, fallback = external_sort(
                Table(self._schema, rows[lo:hi]), self._spec, cap, fan_in,
                pages, engine=self._engine, stats=self._stats,
                forced=self._forced,
            )
            self._ran.append((ran, fallback))
            if sorted_ovcs and self._prefix > 0:
                # The saved head offset, with the first row's own value.
                d = ovcs[lo][0]
                key = self._spec.key_for(self._schema)
                sorted_ovcs[0] = (d, key(sorted_rows[0])[d])
            out_rows.extend(sorted_rows)
            out_ovcs.extend(sorted_ovcs)
            return ran, fallback
        # Pre-existing runs merge in waves of the fan-in; every
        # intermediate wave writes its output and reads it back.
        run_boundary = plan.prefix_len + plan.infix_len
        n_runs = sum(1 for i in range(lo + 1, hi) if ovcs[i][0] < run_boundary) + 1
        if n_runs > fan_in:
            levels = math.ceil(math.log(n_runs, fan_in))
            for _ in range(max(levels - 1, 0)):
                pages.spill_run(rows[lo:hi]).read()
        if self._capped is None or self._capped[0] is not table:
            capped, _, _ = bind_strategy(
                table, self._spec, plan, self.strategy, engine="reference",
                stats=self._stats, max_fan_in=fan_in,
            )
            self._capped = (table, capped)
        self._capped[1](lo, hi, out_rows, out_ovcs)
        return "reference", False


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
