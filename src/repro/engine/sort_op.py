"""The Sort operator: the engine's order enforcer.

Given a required output order, Sort inspects the child's declared
ordering and offset-value codes and picks the cheapest path through the
paper's machinery:

* child already satisfies the order -> pass through (case 0, possibly
  re-coding onto the shorter key), streaming;
* related order -> :func:`repro.core.modify.modify_sort_order`
  (segmented sorting / merging pre-existing runs / combined);
* unordered child -> internal sort, or a stable external merge sort
  when the input exceeds a configured ``memory_capacity`` (rows).

With a ``memory_capacity``, an ordered coded child whose plan reads
forward is modified by :class:`repro.core.external_modify.SegmentLoop`
instead, in memory loads of whole segments: a ``TableScan`` child's
table is read from storage, any other child is fed row by row.  The
label is ``external-modify(<order>)`` when a segment spilled and
``modify(<order>)`` otherwise; :attr:`Sort.pages` has the simulated
I/O and :attr:`Sort.peak_segment_rows` the most rows held.

Every other modify-or-sort choice and the engine it runs on belong to
:func:`repro.core.enforce.enforce_order`: ``config.engine="auto"`` runs
the packed-code kernels of :mod:`repro.fastpath` (reference fallback on
keys the key packer cannot rank), and ``engine="reference"`` is how to ask
for this operator's comparison counters — the fast kernels count
nothing, in memory or external.

``config.cache`` plugs the operator into the order cache
(:mod:`repro.cache`): before sorting, the cache is consulted for this
exact (source rows, order) pair — a hit serves the cached rows and
codes verbatim — or for a *related* cached order that the cost model prices cheaper to modify
than the uncached execution; either way the served output is
bit-identical to an uncached run.  Every executed sort installs its
output for future requests — through one install path, which
:meth:`Sort.to_table` runs before it returns and the order service
runs after it has answered its waiters.  The strategy actually used is
recorded in :attr:`Sort.order_strategy` and shown by ``EXPLAIN`` after
execution (``full-sort``, ``modify(<order>)``, ``cache-hit(<order>)``,
``modify-from-cache(<order>)``, ...).  The cache engages only on the
in-memory ``method="auto"`` + ``use_ovc`` paths.

Every non-passthrough path lives in :meth:`Sort._materialize`, which
takes the child as a table (a ``TableScan`` child hands over the
scanned table itself) and returns one with its install; iteration and
:meth:`Sort.to_table` are thin terminals over it, so a materialized
result is never re-collected pair by pair.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator

from ..core.analysis import analyze_order_modification
from ..core.enforce import enforce_order
from ..core.external_modify import SegmentLoop
from ..core.modify import _check_method
from ..exec.config import ExecutionConfig
from ..model import SortSpec, Table
from ..obs import LOG, SLOWLOG
from ..ovc.derive import project_ovc
from ..storage.pages import PageManager
from .operators import Operator
from .scans import TableScan


class Sort(Operator):
    """Enforce ``spec`` on the child stream.

    ``op.stats`` counts the comparisons *this* call made on the
    reference engine: a cache hit made none and reports zeros, and a
    modify-from-cache counts its own modify.
    """

    def __init__(
        self,
        child: Operator,
        spec: SortSpec,
        method: str = "auto",
        use_ovc: bool = True,
        memory_capacity: int | None = None,
        fan_in: int = 16,
        config: ExecutionConfig | None = None,
    ) -> None:
        _check_method(method)
        if memory_capacity is not None and not _is_int(memory_capacity, 2):
            raise ValueError(
                f"memory_capacity must be None or an int of at least 2 rows, "
                f"not {memory_capacity!r}"
            )
        if not _is_int(fan_in, 2):
            raise ValueError(f"fan_in must be an int of at least 2, not {fan_in!r}")
        super().__init__(child.schema, spec, child.stats)
        self._config = config if config is not None else ExecutionConfig.default()
        if self._config.engine == "fast" and not use_ovc:
            raise ValueError(
                "the fast engine requires offset-value codes (use_ovc=True)"
            )
        self._child = child
        self._spec = spec
        self._method = method
        self._use_ovc = use_ovc
        self._memory_capacity = memory_capacity
        self._fan_in = fan_in
        #: Strategy actually executed, for tests and EXPLAIN output.
        self.executed: str | None = None
        #: Human-readable order strategy for EXPLAIN: ``passthrough``,
        #: ``full-sort``, ``external-sort``, ``modify(<order>)``,
        #: ``external-modify(<order>)``, ``cache-hit(<order>)``, or
        #: ``modify-from-cache(<order>)``.
        self.order_strategy: str | None = None
        #: Simulated I/O of the last execution's spills.
        self.pages = PageManager()
        #: Most rows the last execution held in sort memory.
        self.peak_segment_rows = 0
        #: Fingerprint of the source rows when the cache was consulted.
        self._cache_fp = None

    def _cache(self):
        """The order cache this sort may use, or ``None``.

        The cache engages only where its bit-identical contract is
        provable: the in-memory auto-method path with offset-value
        codes requested.  Forced methods, ``use_ovc=False``, and the
        external-sort configuration stay cold.
        """
        if (
            self._config.cache == "off"
            or self._method != "auto"
            or not self._use_ovc
            or self._memory_capacity is not None
        ):
            return None
        from ..cache import resolve_cache

        return resolve_cache(self._config)

    def _serve(self, cache, table: Table) -> Table | None:
        """Ask the cache for this (source, order); remember the
        fingerprint so a cold execution can install its result."""
        from ..cache import serve

        outcome = serve(
            cache, table, self._spec, stats=self.stats, config=self._config
        )
        self._cache_fp = outcome.fingerprint
        if outcome.table is None:
            return None
        self.executed = "cache"
        self.order_strategy = outcome.label
        return outcome.table

    def _observe(self, mark, before, **ran) -> None:
        """Close this sort's slowlog watch and log the decision.

        Called once per executed (non-passthrough) path, after the
        heavy work and before emission — what the threshold times is
        the sort, not the consumer.  ``ran`` carries the engine that
        executed and whether it was ``auto``'s reference fallback.
        """
        if LOG.enabled:
            LOG.event(
                "sort.executed",
                executed=self.executed,
                strategy=self.order_strategy,
                **ran,
            )
        SLOWLOG.record(
            mark, "sort", strategy=self.order_strategy,
            stats=self.stats - before, **ran,
        )

    def _passes_through(self) -> bool:
        ordering = self._child.ordering
        return ordering is not None and ordering.satisfies(self._spec)

    def _materialize(self) -> tuple[Table, Callable[[], bool] | None]:
        """Run the sort (any non-passthrough path): its output, and the
        install of that output into the order cache when it is due.

        The install is returned, not run: :meth:`to_table` and iteration
        run it before they hand the output over, the order service after
        it has answered its waiters.  The returned tuples may be the
        order cache's own (an exact hit serves the entry as-is; an
        executed sort installs what it returns), shared as they are:
        nobody can change them.
        """
        mark = SLOWLOG.mark()
        mark_before = self.stats.snapshot()
        self.pages = PageManager()
        child = self._child
        if (
            self._memory_capacity is not None
            and self._use_ovc
            and child.ordering is not None
        ):
            plan = analyze_order_modification(child.ordering, self._spec)
            if not plan.backward:
                return self._modify_bounded(plan, mark, mark_before), None
        cache = self._cache()

        table = child.to_table()
        ordered = table.sort_spec is not None
        if cache is not None and (not ordered or table.ovcs is not None):
            served = self._serve(cache, table)
            if served is not None:
                self._observe(mark, mark_before)
                return served, None

        installs = cache is not None and self._cache_fp is not None
        done = enforce_order(
            table,
            self._spec,
            method=self._method,
            use_ovc=self._use_ovc,
            stats=self.stats,
            config=self._config,
            want_perm=installs,
            memory_capacity=self._memory_capacity,
            fan_in=self._fan_in,
            pages=self.pages,
        )
        self.executed = done.executed
        self.order_strategy = done.strategy
        self.peak_segment_rows = (
            self._memory_capacity if done.executed == "external_sort"
            else len(table.rows)
        )
        self._observe(
            mark, mark_before, engine=done.engine, fallback=done.fallback
        )
        if not installs:
            return done.table, None
        from ..cache import install_result

        return done.table, partial(
            install_result, cache, self._cache_fp, self._spec, done.table,
            perm=done.perm,
        )

    def _modify_bounded(self, plan, mark, mark_before) -> Table:
        """Modify an ordered child in ``memory_capacity``-row loads."""
        child = self._child
        loop = SegmentLoop(
            child.schema, child.ordering, self._spec, plan,
            memory_capacity=self._memory_capacity, fan_in=self._fan_in,
            pages=self.pages, method=self._method, stats=self.stats,
            config=self._config,
        )
        rows: list[tuple] = []
        ovcs: list[tuple] = []
        with LOG.query_scope():
            if isinstance(child, TableScan):
                loads = loop.resident(child.to_table())
            else:
                loads = loop.streamed(child)
            for _ in loop.run(loads, rows, ovcs):
                pass
        spilled = self.pages.stats.pages_written > 0
        order = child.ordering.label
        self.executed = "external_modify" if spilled else "modify_sort_order"
        self.order_strategy = (
            f"external-modify({order})" if spilled else f"modify({order})"
        )
        self.peak_segment_rows = loop.peak_rows
        self._observe(
            mark, mark_before, engine=loop.engine, fallback=loop.fallback
        )
        return Table(self.schema, rows, self._spec, ovcs)

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        if self._passes_through():
            self.executed = "passthrough"
            self.order_strategy = "passthrough"
            arity = self._spec.arity
            for row, ovc in self._child:
                yield row, ovc if ovc is None else project_ovc(ovc, arity)
            return
        yield from _emit(_installed(*self._materialize()))

    def to_table(self) -> Table:
        """The sorted output as a table, installed in the order cache
        (when the execution installs) before it is returned.

        A materialized result is handed over as is (a cache hit shares
        the entry's tuples, nothing is copied), rather than re-collected
        pair by pair from :meth:`__iter__`; passthrough keeps streaming.
        """
        return _installed(*self._answer())

    def _answer(self) -> tuple[Table, Callable[[], bool] | None]:
        """:meth:`to_table`'s output with its install not yet run (see
        :meth:`_materialize`): the order service answers first."""
        if self._passes_through():
            return super().to_table(), None
        return self._materialize()

    def _children(self) -> list[Operator]:
        return [self._child]

    def _explain_detail(self) -> str:
        base = super()._explain_detail()
        if self.order_strategy is not None:
            return f"{base} [strategy: {self.order_strategy}]"
        return base


def _is_int(value, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _installed(table: Table, install: Callable[[], bool] | None) -> Table:
    if install is not None:
        install()
    return table


def _emit(table: Table) -> Iterator[tuple[tuple, tuple | None]]:
    if table.ovcs is None:
        for row in table.rows:
            yield row, None
    else:
        yield from zip(table.rows, table.ovcs)
