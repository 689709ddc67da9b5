"""Execute a :class:`~repro.plan.planner.DerivationPlan`.

Each requested node runs exactly the machinery a solo
``Sort(TableScan(source), spec)`` would have used for its chosen
parent — :func:`repro.core.enforce.enforce_order` from the source (which
also owns the engine choice), an exact cache hit, or the cache
dispatcher's modify-from-cache path (:func:`~repro.cache.dispatch.
_modify_from`, re-tie-broken against the source's arrival order) — so
rows and codes are bit-identical to per-request execution by
construction.

Counters are per-node deltas describing the work actually performed
— comparison counts under ``engine="reference"``, zeros when the
packed-code kernels ran: a node derived straight from the source
reports exactly what the solo execution would have, a node derived
from a cached order reports its (cheaper) modification work — the same
accounting the cache's modify-from-cache serves already use.

Nodes run one after another in the calling thread, in request order;
under the interpreter lock a thread pool bought nothing here.  Each
finished node is handed to the caller's ``on_node`` callback before the
next one starts, so a server can answer the first order of a batch
while the last is still being derived; no node reads another's result,
so what the callback does with its lists is its own business.  A
mispredicted parent (evicted cache entry, kernel type error) falls back
to deriving from the source, never failing the batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..cache.dispatch import _modify_from, _names
from ..cache.fingerprint import fingerprint_table
from ..core.enforce import enforce_order
from ..exec.config import ExecutionConfig
from ..model import SortSpec, Table
from ..obs import LOG, METRICS
from ..ovc.stats import ComparisonStats
from .planner import DerivationPlan, plan_batch


@dataclass
class NodeResult:
    """One executed node: the order, its table, and its accounting."""

    index: int
    spec: SortSpec
    table: Table
    #: Same vocabulary as ``Sort.order_strategy``.
    label: str
    stats_delta: ComparisonStats
    #: True when the planned parent was unusable and the node was
    #: re-derived from the source.
    fallback: bool = False


@dataclass
class BatchResult:
    """Everything a batch execution produced."""

    plan: DerivationPlan
    results: dict[int, NodeResult]
    #: The request list as given (duplicates preserved).
    specs: list[SortSpec]
    #: Merged counters across every executed node.
    stats: ComparisonStats = field(default_factory=ComparisonStats)

    def result_for(self, spec: SortSpec) -> NodeResult:
        return self.results[self.plan.spec_nodes[spec]]

    def tables(self) -> list[Table]:
        """Output tables in request order."""
        return [self.result_for(spec).table for spec in self.specs]

    @property
    def fallbacks(self) -> int:
        return sum(1 for r in self.results.values() if r.fallback)


def execute_plan(
    plan: DerivationPlan,
    source: Table,
    *,
    cache=None,
    fp=None,
    config: ExecutionConfig | None = None,
    on_node=None,
) -> dict[int, NodeResult]:
    """Materialize every requested node of ``plan``; see module docs.

    ``on_node(result)`` is called with each :class:`NodeResult` as soon
    as it exists; an exception it raises propagates like a kernel's.
    """
    cfg = config if config is not None else ExecutionConfig.default()
    results: dict[int, NodeResult] = {}
    caching = cache is not None and fp is not None

    def _from_source(node, delta, fallback=False) -> NodeResult:
        spec = node.spec
        if fallback:
            delta.reset()
            if LOG.enabled:
                LOG.event(
                    "plan.fallback", order=_names(spec),
                    planned=node.strategy,
                )
        done = enforce_order(
            source, spec, stats=delta, config=cfg, want_perm=caching
        )
        table = done.table
        if caching and done.executed != "passthrough" and table.ovcs is not None:
            # ``table`` goes out in the response; the cache keeps its own
            # lists.
            cache.install(
                fp, spec, table.rows[:], table.ovcs[:], delta,
                replayable=True, perm=done.perm,
            )
        return NodeResult(node.index, spec, table, done.strategy, delta,
                          fallback)

    def _run(node) -> NodeResult:
        spec = node.spec
        delta = ComparisonStats()
        parent = plan.nodes[node.parent]
        if parent.kind == "source":
            return _from_source(node, delta)
        if parent.spec == spec:
            hit = cache.lookup(fp, spec) if cache is not None else None
            if hit is None:
                return _from_source(node, delta, fallback=True)
            delta.merge(hit.stats_delta)
            table = Table(source.schema, hit.rows[:], spec, hit.ovcs[:])
            return NodeResult(node.index, spec, table,
                              f"cache-hit({_names(spec)})", delta)
        entry = cache.fetch(fp, parent.spec) if cache is not None else None
        served = None if entry is None else _modify_from(
            cache, fp, source, entry, spec, delta, cfg
        )
        if served is None:
            return _from_source(node, delta, fallback=True)
        # ``served`` holds the lists the cache just installed.
        table = Table(source.schema, served.rows[:], spec, served.ovcs[:])
        return NodeResult(node.index, spec, table,
                          f"modify-from-cache({_names(parent.spec)})", delta)

    for idx in plan.order:
        done = results[idx] = _run(plan.nodes[idx])
        if on_node is not None:
            on_node(done)
    return results


def derive_batch(
    source: Table,
    orders,
    *,
    config: ExecutionConfig | None = None,
    on_node=None,
) -> BatchResult:
    """Plan and execute a batch of target orders over ``source``.

    ``orders`` accepts the same shapes as ``Query.order_by`` targets:
    :class:`SortSpec`, a column-name string, or an iterable of columns.
    Returns a :class:`BatchResult`; per-order tables come back in
    request order from :meth:`BatchResult.tables`.  ``on_node`` is
    :func:`execute_plan`'s per-node completion callback.
    """
    cfg = config if config is not None else ExecutionConfig.default()
    specs = [_coerce(o) for o in orders]
    result = BatchResult(
        plan=DerivationPlan([], 0, [], len(source.rows), 0.0, 0.0),
        results={}, specs=specs,
    )
    if not specs:
        return result

    cache = None
    fp = None
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
        results = execute_plan(
            plan, source, cache=cache, fp=fp, config=cfg, on_node=on_node
        )
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
    result.results = results
    for node_result in results.values():
        result.stats.merge(node_result.stats_delta)
    if METRICS.enabled:
        METRICS.counter("plan.batches").inc()
        METRICS.counter("plan.nodes").inc(len(results))
        if result.fallbacks:
            METRICS.counter("plan.fallbacks").inc(result.fallbacks)
        METRICS.histogram("plan.batch_size").observe(len(plan.order))
        METRICS.histogram("plan.est_speedup").observe(
            min(plan.est_speedup, 1e6)
        )
    return result


def _coerce(order) -> SortSpec:
    if isinstance(order, SortSpec):
        return order
    if isinstance(order, str):
        return SortSpec.of(order)
    return SortSpec(list(order))
