"""Run a batch of orders: plan it once, then ``Sort`` every order.

:func:`plan_batch` is the batch's *prediction* — every order's cheapest
materialized parent by the cache dispatcher's own rule, for EXPLAIN,
the ``plan.*`` telemetry and the cost accounting.  Execution owns no
path of its own: each deduplicated order is materialized by
``Sort(TableScan(source), spec, config=cfg).to_table()``, in request
order, so its rows, codes, cache traffic and label are a solo
request's by construction.  An order whose executed strategy differs
from the planned one (a planned cached parent was evicted first, say)
is flagged :attr:`NodeResult.fallback`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..cache.fingerprint import fingerprint_table
from ..engine.scans import TableScan
from ..engine.sort_op import Sort
from ..exec.config import ExecutionConfig
from ..model import SortSpec, Table
from ..obs import LOG, METRICS
from ..ovc.stats import ComparisonStats
from .planner import DerivationPlan, PlanNode, plan_batch


@dataclass
class NodeResult:
    """One executed order: its table and its accounting."""

    index: int
    spec: SortSpec
    table: Table
    #: The executing ``Sort``'s ``order_strategy``.
    label: str
    #: True when the executed strategy is not the planned one.
    fallback: bool = False


@dataclass
class BatchResult:
    """Everything a batch execution produced."""

    plan: DerivationPlan
    results: dict[int, NodeResult]
    #: The request list as given (duplicates preserved).
    specs: list[SortSpec]
    #: The sum of every executed order's own ``Sort.stats``.
    stats: ComparisonStats = field(default_factory=ComparisonStats)

    def result_for(self, spec: SortSpec) -> NodeResult:
        return self.results[self.plan.spec_nodes[spec]]

    def tables(self) -> list[Table]:
        """Output tables in request order."""
        return [self.result_for(spec).table for spec in self.specs]

    @property
    def fallbacks(self) -> int:
        return sum(1 for r in self.results.values() if r.fallback)


def derive_batch(
    source: Table,
    orders,
    *,
    config: ExecutionConfig | None = None,
) -> BatchResult:
    """Plan and execute a batch of target orders over ``source``.

    ``orders`` accepts the same shapes as ``Query.order_by`` targets:
    :class:`SortSpec`, a column-name string, or an iterable of columns.
    Returns a :class:`BatchResult`; per-order tables come back in
    request order from :meth:`BatchResult.tables`.
    """
    cfg = config if config is not None else ExecutionConfig.default()
    specs = [_coerce(o) for o in orders]
    result = BatchResult(
        plan=DerivationPlan([], 0, [], len(source.rows), 0.0, 0.0),
        results={}, specs=specs,
    )
    if not specs:
        return result

    cache = fp = None
    if cfg.cache != "off":
        from ..cache import resolve_cache

        cache = resolve_cache(cfg)
    if cache is not None:
        fp = fingerprint_table(source)

    started = time.perf_counter()
    plan = plan_batch(
        source, specs, cache=cache, fingerprint=fp, config=cfg
    )
    planned = time.perf_counter()
    try:
        for idx in plan.order:
            node = plan.nodes[idx]
            op = Sort(TableScan(source), node.spec, config=cfg)
            table = op.to_table()
            result.results[idx] = NodeResult(
                idx, node.spec, table, op.order_strategy,
                op.order_strategy != _planned_label(plan, node),
            )
            result.stats.merge(op.stats)
    finally:
        if LOG.enabled:
            LOG.event(
                "plan.batch",
                orders=len(plan.order),
                nodes=len(plan.nodes),
                est_independent=round(plan.est_independent),
                est_planned=round(plan.est_planned),
                est_speedup=round(min(plan.est_speedup, 1e6), 3),
                plan_ms=round((planned - started) * 1000, 3),
                execute_ms=round(
                    (time.perf_counter() - planned) * 1000, 3
                ),
            )
    result.plan = plan
    if METRICS.enabled:
        METRICS.counter("plan.batches").inc()
        METRICS.counter("plan.nodes").inc(len(result.results))
        if result.fallbacks:
            METRICS.counter("plan.fallbacks").inc(result.fallbacks)
        METRICS.histogram("plan.batch_size").observe(len(plan.order))
        METRICS.histogram("plan.est_speedup").observe(
            min(plan.est_speedup, 1e6)
        )
    return result


def _planned_label(plan: DerivationPlan, node: PlanNode) -> str:
    """The ``Sort.order_strategy`` the plan predicts for ``node``."""
    if node.strategy in ("passthrough", "full-sort"):
        return node.strategy
    return f"{node.strategy}({plan.nodes[node.parent].spec.label})"


def _coerce(order) -> SortSpec:
    if isinstance(order, SortSpec):
        return order
    if isinstance(order, str):
        return SortSpec.of(order)
    return SortSpec(list(order))
