"""Fluent query facade over the pull-based engine.

A thin, lazy builder so downstream users compose plans without touching
operator classes directly::

    from repro.query import Query

    transcripts = (
        Query(students)
        .join(Query(enrollments).order_by("campus", "student"),
              on=[("campus", "campus"), ("student", "student")])
        .group_by(["campus", "student"], [("count", None)])
        .to_table()
    )

Everything stays order- and code-aware: ``order_by`` plans through
:func:`repro.core.modify.modify_sort_order` when the input order is
related, joins insert enforcers only when needed, and group-by /
distinct / pivot run in-stream off the codes.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .engine.aggregate import Aggregate, Distinct, GroupBy
from .engine.merge_join import MergeJoin
from .engine.misc import Filter, Limit, Project, TopK
from .engine.operators import Operator
from .engine.pivot import Pivot
from .engine.scans import TableScan
from .engine.set_ops import Except, Intersect, UnionAll, UnionDistinct
from .engine.sort_op import Sort
from .exec.config import ExecutionConfig
from .model import SortSpec, Table
from .obs import LOG, SLOWLOG


class Query:
    """A lazily-built operator tree with a chainable interface."""

    def __init__(self, source: Table | Operator) -> None:
        if isinstance(source, Table):
            self._op: Operator = TableScan(source)
        elif isinstance(source, Operator):
            self._op = source
        else:
            raise TypeError(f"cannot query a {type(source).__name__}")

    # -------------------------------------------------------- plumbing

    @property
    def op(self) -> Operator:
        return self._op

    @property
    def schema(self):
        return self._op.schema

    @property
    def ordering(self) -> SortSpec | None:
        return self._op.ordering

    def _wrap(self, op: Operator) -> "Query":
        q = Query.__new__(Query)
        q._op = op
        return q

    # ------------------------------------------------------- operators

    def filter(self, predicate: Callable[[tuple], bool]) -> "Query":
        """Keep rows satisfying ``predicate`` (codes repaired for free)."""
        return self._wrap(Filter(self._op, predicate))

    def where(self, column: str, value) -> "Query":
        """Equality filter on one column."""
        pos = self._op.schema.index_of(column)
        return self.filter(lambda row: row[pos] == value)

    def select(self, *columns: str) -> "Query":
        """Project to the named columns."""
        return self._wrap(Project(self._op, list(columns)))

    def order_by(
        self,
        *columns: str,
        method: str = "auto",
        config: "ExecutionConfig | None" = None,
    ) -> "Query":
        """Enforce a sort order, exploiting the input order if related.

        ``config`` (an :class:`~repro.exec.ExecutionConfig`) governs
        execution: the default ``engine="auto"`` runs the sort through
        the packed-code kernels (:mod:`repro.fastpath`, reference
        fallback on keys the key packer cannot rank) — same rows and codes,
        no comparison counts on the operator's stats;
        ``engine="reference"`` is how to ask for those counts;
        ``cache="on"`` serves repeat orders over the same rows from
        the order cache (:mod:`repro.cache`) — exact repeats verbatim,
        related orders by modifying the best cached order — with the
        strategy shown per Sort node by :meth:`explain` /
        ``explain_analyze`` after execution.
        """
        return self._wrap(
            Sort(self._op, SortSpec.of(*columns), method=method, config=config)
        )

    def order_by_many(
        self,
        orders: Sequence,
        *,
        config: "ExecutionConfig | None" = None,
    ) -> list[Table]:
        """Materialize several sort orders of this query at once.

        ``orders`` is a sequence of targets (each a
        :class:`~repro.model.SortSpec`, a column-name string, or an
        iterable of columns).  This is a *terminal*: the plan runs
        once, and :func:`repro.plan.derive_batch` runs every order
        through the ``Sort`` that ``.order_by(...)`` would have used
        over the query's result (consulting the order cache when
        ``config.cache`` is on).  Returns one
        :class:`~repro.model.Table` per target, in request order,
        each bit-identical (rows and codes) to what
        ``.order_by(...)`` would have produced; derivation counters
        (``engine="reference"`` only) merge into the plan's stats.
        """
        from .plan import derive_batch

        with LOG.query_scope():
            mark = SLOWLOG.mark()
            source = self._op.to_table()
            if not list(orders):
                self._observe(mark, "query.order_by_many", len(source.rows))
                return []
            result = derive_batch(source, orders, config=config)
            self._op.stats.merge(result.stats)
            if LOG.enabled:
                LOG.event(
                    "plan.order_by_many",
                    orders=len(result.specs),
                    est_speedup=round(
                        min(result.plan.est_speedup, 1e6), 3
                    ),
                )
            self._observe(mark, "query.order_by_many", len(source.rows))
            return result.tables()

    def group_by(
        self,
        group_columns: Sequence[str],
        aggregates: Sequence[tuple] = (("count", None),),
    ) -> "Query":
        """In-stream grouping; sorts first when the order is missing."""
        child = self._op
        group_spec = SortSpec(group_columns)
        if child.ordering is None or not child.ordering.satisfies(group_spec):
            child = Sort(child, group_spec)
        return self._wrap(GroupBy(child, group_columns, aggregates))

    def aggregate(self, aggregates: Sequence[tuple]) -> "Query":
        """Whole-input aggregation to a single row."""
        return self._wrap(Aggregate(self._op, aggregates))

    def distinct(self, key_columns: Sequence[str] | None = None) -> "Query":
        child = self._op
        if key_columns is not None:
            spec = SortSpec(key_columns)
            if child.ordering is None or not child.ordering.satisfies(spec):
                child = Sort(child, spec)
        elif child.ordering is None:
            raise ValueError("distinct on unsorted input needs key columns")
        return self._wrap(Distinct(child, key_columns))

    def limit(self, n: int) -> "Query":
        return self._wrap(Limit(self._op, n))

    def top(self, k: int, *order_columns: str) -> "Query":
        return self._wrap(TopK(self._op, SortSpec.of(*order_columns), k))

    def pivot(
        self,
        group_columns: Sequence[str],
        pivot_column: str,
        value_column: str,
        pivot_values: Sequence,
        agg: str = "sum",
    ) -> "Query":
        child = self._op
        needed = SortSpec(tuple(group_columns) + (pivot_column,))
        if child.ordering is None or not child.ordering.satisfies(needed):
            child = Sort(child, needed)
        return self._wrap(
            Pivot(child, group_columns, pivot_column, value_column,
                  pivot_values, agg)
        )

    def join(
        self,
        other: "Query | Table",
        on: Sequence[tuple[str, str]],
        method: str = "auto",
    ) -> "Query":
        """Merge equi-join; both sides get order enforcers as needed."""
        right = other if isinstance(other, Query) else Query(other)
        left_keys = [l for l, _r in on]
        right_keys = [r for _l, r in on]
        left_op, right_op = self._op, right._op
        lspec, rspec = SortSpec(left_keys), SortSpec(right_keys)
        if left_op.ordering is None or not left_op.ordering.satisfies(lspec):
            left_op = Sort(left_op, lspec, method=method)
        if right_op.ordering is None or not right_op.ordering.satisfies(rspec):
            right_op = Sort(right_op, rspec, method=method)
        return self._wrap(MergeJoin(left_op, right_op, left_keys, right_keys))

    def union_all(self, other: "Query | Table") -> "Query":
        return self._wrap(UnionAll(self._op, _as_op(other)))

    def union(self, other: "Query | Table") -> "Query":
        return self._wrap(UnionDistinct(self._op, _as_op(other)))

    def intersect(self, other: "Query | Table") -> "Query":
        return self._wrap(Intersect(self._op, _as_op(other)))

    def except_(self, other: "Query | Table") -> "Query":
        return self._wrap(Except(self._op, _as_op(other)))

    # ------------------------------------------------------- terminals

    def rows(self) -> list[tuple]:
        with LOG.query_scope():
            mark = SLOWLOG.mark()
            result = self._op.rows()
            self._observe(mark, "query.rows", len(result))
            return result

    def to_table(self) -> Table:
        with LOG.query_scope():
            mark = SLOWLOG.mark()
            result = self._op.to_table()
            self._observe(mark, "query.to_table", len(result.rows))
            return result

    def _observe(self, mark, kind: str, n_rows: int) -> None:
        """Close the terminal's slowlog watch and log the execution.

        ``order_strategy`` reports every Sort node's resolved strategy
        (operators record it during iteration), joined in plan order.
        """
        if mark is None and not LOG.enabled:
            return
        strategies = _sort_strategies(self._op)
        strategy = ",".join(strategies) if strategies else None
        if LOG.enabled:
            LOG.event(kind, rows=n_rows, strategy=strategy)
        SLOWLOG.record(
            mark, kind, strategy=strategy, stats=self._op.stats, rows=n_rows
        )

    def explain(self) -> str:
        return self._op.explain()

    def __iter__(self):
        return iter(self._op)


def _sort_strategies(op: Operator) -> list[str]:
    """Every executed Sort's ``order_strategy``, depth-first plan order."""
    out: list[str] = []
    stack = [op]
    while stack:
        node = stack.pop()
        strategy = getattr(node, "order_strategy", None)
        if strategy is not None:
            out.append(strategy)
        stack.extend(reversed(node._children()))
    return out


def _as_op(other: "Query | Table") -> Operator:
    if isinstance(other, Query):
        return other._op
    if isinstance(other, Table):
        return TableScan(other)
    raise TypeError(f"cannot combine with {type(other).__name__}")
