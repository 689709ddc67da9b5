"""The Sort operator: the engine's order enforcer.

Given a required output order, Sort inspects the child's declared
ordering and offset-value codes and picks the cheapest path through the
paper's machinery:

* child already satisfies the order -> pass through (case 0, possibly
  re-coding onto the shorter key), streaming;
* related order -> :func:`repro.core.modify.modify_sort_order`
  (segmented sorting / merging pre-existing runs / combined);
* unordered child -> internal sort, or external merge sort when the
  input exceeds a configured ``memory_capacity`` (rows).

The modify-or-sort choice and the engine it runs on belong to
:func:`repro.core.enforce.enforce_order`: ``config.engine="auto"`` runs
the packed-code kernels of :mod:`repro.fastpath` (reference fallback on
keys the key packer cannot rank), and ``engine="reference"`` is how to ask
for this operator's comparison counters — the fast kernels count
nothing.  The external merge sort has no fast twin (spill accounting
is its point) and always runs the reference path.

``config.cache`` plugs the operator into the order cache
(:mod:`repro.cache`): before sorting, the cache is consulted for this
exact (source rows, order) pair — a hit serves the cached rows and
codes verbatim — or for a *related* cached order that the cost model prices cheaper to modify
than the uncached execution; either way the served output is
bit-identical to an uncached run.  Every executed sort installs its
output for future requests.  The strategy actually used is recorded in
:attr:`Sort.order_strategy` and shown by ``EXPLAIN`` after execution
(``full-sort``, ``modify(<order>)``, ``cache-hit(<order>)``,
``modify-from-cache(<order>)``, ...).  The cache engages only on the
in-memory ``method="auto"`` + ``use_ovc`` paths.

Every non-passthrough path lives in :meth:`Sort._materialize`, which
takes the child as a table (a ``TableScan`` child hands over the
scanned table itself) and returns one; iteration and
:meth:`Sort.to_table` are thin terminals over it, so a materialized
result is never re-collected pair by pair.
"""

from __future__ import annotations

from typing import Iterator

from ..core.enforce import enforce_order
from ..exec.config import ExecutionConfig
from ..model import SortSpec, Table
from ..obs import LOG, SLOWLOG
from ..ovc.derive import project_ovc
from ..sorting.external import ExternalMergeSort
from .operators import Operator


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
        #: ``cache-hit(<order>)``, or ``modify-from-cache(<order>)``.
        self.order_strategy: str | None = None
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

    def _install(self, cache, done) -> None:
        from ..cache import install_result

        install_result(
            cache, self._cache_fp, self._spec, done.table, perm=done.perm
        )

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

    def _materialize(self) -> Table:
        """Run the sort (any non-passthrough path) and return its output.

        The returned lists may be the order cache's own (an exact hit
        serves the entry as-is; an executed sort installs what it
        returns): iteration hands out pairs, never the lists, and
        :meth:`to_table` copies them.
        """
        mark = SLOWLOG.mark()
        mark_before = self.stats.snapshot()
        cache = self._cache()

        table = self._child.to_table()
        ordered = table.sort_spec is not None
        if (
            not ordered
            and self._memory_capacity is not None
            and len(table.rows) > self._memory_capacity
        ):
            sorter = ExternalMergeSort(
                self._spec.positions(self.schema),
                memory_capacity=self._memory_capacity,
                fan_in=self._fan_in,
                use_ovc=self._use_ovc,
                directions=self._spec.directions,
            )
            result = sorter.sort(table.rows)
            self.executed = "external_sort"
            self.order_strategy = "external-sort"
            self.stats.merge(result.total_stats)
            self._observe(mark, mark_before)
            return Table(self.schema, result.rows, self._spec, result.ovcs)

        if cache is not None and (not ordered or table.ovcs is not None):
            served = self._serve(cache, table)
            if served is not None:
                self._observe(mark, mark_before)
                return served

        installs = cache is not None and self._cache_fp is not None
        done = enforce_order(
            table,
            self._spec,
            method=self._method,
            use_ovc=self._use_ovc,
            stats=self.stats,
            config=self._config,
            want_perm=installs,
        )
        self.executed = done.executed
        self.order_strategy = done.strategy
        if installs:
            self._install(cache, done)
        self._observe(
            mark, mark_before, engine=done.engine, fallback=done.fallback
        )
        return done.table

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        if self._passes_through():
            self.executed = "passthrough"
            self.order_strategy = "passthrough"
            arity = self._spec.arity
            for row, ovc in self._child:
                yield row, ovc if ovc is None else project_ovc(ovc, arity)
            return
        yield from _emit(self._materialize())

    def to_table(self) -> Table:
        """The sorted output as a table the caller owns.

        A materialized result is handed over through two C-level list
        slices rather than re-collected pair by pair from
        :meth:`__iter__`; passthrough keeps streaming.
        """
        if self._passes_through():
            return super().to_table()
        out = self._materialize()
        return Table(
            self.schema, out.rows[:], self._spec,
            None if out.ovcs is None else out.ovcs[:],
        )

    def _children(self) -> list[Operator]:
        return [self._child]

    def _explain_detail(self) -> str:
        base = super()._explain_detail()
        if self.order_strategy is not None:
            return f"{base} [strategy: {self.order_strategy}]"
        return base


def _emit(table: Table) -> Iterator[tuple[tuple, tuple | None]]:
    if table.ovcs is None:
        for row in table.rows:
            yield row, None
    else:
        yield from zip(table.rows, table.ovcs)
