"""Batch order-derivation planning.

Given N pending target orders over one source table, pick for every
target the cheapest parent to derive it from — the source itself, a
cache-resident order, or one of the *other* targets once it has been
produced — and return the result as a derivation tree.  Nodes are
orders, the weight of edge ``u -> v`` is the cost model's estimate of
producing ``v`` by modifying a materialization of ``u`` (vs. a full
sort), and the optimal assignment is the minimum spanning arborescence
rooted at a virtual node with zero-cost edges to everything already
materialized.

Edge pricing mirrors the cache dispatcher: exact offset-count
histograms when the parent is materialized with codes, the sampled
:class:`~repro.plan.cardinality.CardinalityEstimator` when the parent
is itself only planned, and the dispatcher's ``WIN_MARGIN`` applied as
a selection bias so near-ties resolve toward deriving straight from
the source (estimates are noisy; the source is the safe parent).
Reported costs are always the unbiased estimates.

The estimator — and with it every distinct count estimated so far —
is kept on the source :class:`~repro.model.Table` (its memo record,
revalidated against a snapshot of the rows like the table's
fingerprint), so only the first batch over a table pays the O(n)
sampling passes; later batches price their edges in O(edges).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.analysis import Strategy, analyze_order_modification
from ..core.cost import CostModel, counts_to_structure
from ..cache.dispatch import WIN_MARGIN, _names
from ..cache.store import _offset_counts
from ..model import SortSpec, Table
from .arborescence import minimum_arborescence
from .cardinality import CardinalityEstimator


@dataclass
class PlanNode:
    """One order in the derivation graph."""

    index: int
    #: The node's sort order; ``None`` for an unordered source.
    spec: SortSpec | None
    #: ``"source"``, ``"cached"``, or ``"requested"``.
    kind: str
    #: True when this order was asked for (only these are executed).
    requested: bool
    #: Chosen parent node index (``None`` for materialized nodes).
    parent: int | None = None
    #: Unbiased cost estimate of the chosen edge into this node.
    edge_cost: float = 0.0
    #: Cost of deriving this node straight from the source.
    baseline_cost: float = 0.0
    #: Planned execution path: ``passthrough``, ``full-sort``,
    #: ``modify``, ``cache-hit``, ``modify-from-cache``, ``derive``.
    strategy: str = ""


@dataclass
class DerivationPlan:
    """The chosen arborescence plus its cost accounting."""

    nodes: list[PlanNode]
    source_index: int
    #: Requested node indexes in execution order (parents first).
    order: list[int]
    n_rows: int
    #: Estimated comparisons if every target derived from the source.
    est_independent: float
    #: Estimated comparisons along the chosen edges.
    est_planned: float
    #: Requested spec -> node index (specs are deduplicated).
    spec_nodes: dict[SortSpec, int] = field(default_factory=dict)

    @property
    def est_speedup(self) -> float:
        if self.est_planned > 0:
            return self.est_independent / self.est_planned
        return float("inf") if self.est_independent > 0 else 1.0

    def sibling_edges(self) -> int:
        """Edges whose parent is itself a requested (planned) order."""
        return sum(
            1
            for n in self.nodes
            if n.requested
            and n.parent is not None
            and self.nodes[n.parent].requested
        )

    def explain(self) -> str:
        """Human-readable tree of the chosen arborescence."""
        children: dict[int | None, list[int]] = {}
        for n in self.nodes:
            if n.requested:
                children.setdefault(n.parent, []).append(n.index)

        def label(n: PlanNode) -> str:
            if n.kind == "source":
                order = _names(n.spec) if n.spec is not None else "unordered"
                return f"source({order})"
            if n.kind == "cached":
                return f"cached({_names(n.spec)})"
            return (
                f"{_names(n.spec)}  [{n.strategy}]"
                f"  est={n.edge_cost:.0f} vs solo={n.baseline_cost:.0f}"
            )

        lines = [
            f"derivation plan: {sum(n.requested for n in self.nodes)}"
            f" order(s) over {self.n_rows} rows,"
            f" est {self.est_speedup:.2f}x vs independent"
        ]

        def walk(idx: int, prefix: str) -> None:
            kids = children.get(idx, [])
            for i, child in enumerate(kids):
                last = i == len(kids) - 1
                branch = "└─ " if last else "├─ "
                lines.append(prefix + branch + label(self.nodes[child]))
                walk(child, prefix + ("   " if last else "│  "))

        roots = [
            n.index
            for n in self.nodes
            if not n.requested and (n.index in children or n.kind == "source")
        ]
        for idx in roots:
            lines.append(label(self.nodes[idx]))
            walk(idx, "")
        return "\n".join(lines)


def plan_batch(
    source: Table,
    specs: list[SortSpec],
    *,
    cache=None,
    fingerprint=None,
    config=None,
) -> DerivationPlan:
    """Plan the cheapest derivation of ``specs`` from ``source``.

    ``cache``/``fingerprint`` (both optional) bring the cache's
    resident orders for this source in as candidate parents.  The
    returned plan's :attr:`~DerivationPlan.order` lists requested
    nodes parents-first, ready for :func:`~repro.plan.execute_plan`.
    """
    n = len(source.rows)
    deduped = list(dict.fromkeys(specs))

    nodes = [PlanNode(0, source.sort_spec, "source", False)]
    offset_counts: dict[int, tuple | None] = {0: None}
    if source.sort_spec is not None and source.ovcs is not None:
        offset_counts[0] = _offset_counts(source.ovcs, source.sort_spec.arity)
    if cache is not None and fingerprint is not None:
        for cand in cache.candidates(fingerprint):
            if source.sort_spec is not None and cand.spec == source.sort_spec:
                continue
            idx = len(nodes)
            nodes.append(PlanNode(idx, cand.spec, "cached", False))
            offset_counts[idx] = cand.offset_counts
    spec_nodes: dict[SortSpec, int] = {}
    for spec in deduped:
        idx = len(nodes)
        nodes.append(PlanNode(idx, spec, "requested", True))
        spec_nodes[spec] = idx

    estimator: CardinalityEstimator | None = None

    def _distinct(names: tuple) -> int:
        nonlocal estimator
        if estimator is None:
            estimator = _table_estimator(source)
        return estimator.distinct(names)

    def _pair_cost(u: int, child_spec: SortSpec) -> float:
        parent_spec = nodes[u].spec
        if parent_spec is None:
            return CostModel(n, 1, 1).full_sort().total
        mplan = analyze_order_modification(parent_spec, child_spec)
        if mplan.strategy is Strategy.NOOP:
            return 0.0
        counts = offset_counts.get(u)
        if counts is not None:
            segs, runs = counts_to_structure(
                counts, mplan.prefix_len, mplan.infix_len
            )
        else:
            names = mplan.input_spec.names
            segs = _distinct(names[: mplan.prefix_len])
            runs = max(
                segs, _distinct(names[: mplan.prefix_len + mplan.infix_len])
            )
        model = CostModel(n, segs, runs)
        if mplan.strategy is Strategy.FULL_SORT:
            return model.full_sort().total
        return model.modify_from(mplan).total

    root = len(nodes)
    edges: list[tuple[int, int, float]] = []
    true_cost: dict[tuple[int, int], float] = {}
    for node in nodes:
        if not node.requested:
            edges.append((root, node.index, 0.0))
    for node in nodes:
        if not node.requested:
            continue
        v = node.index
        for parent in nodes:
            u = parent.index
            if u == v:
                continue
            w = _pair_cost(u, node.spec)
            true_cost[(u, v)] = w
            # Bias selection toward the source parent on near-ties —
            # same philosophy as the dispatcher's WIN_MARGIN: a cached
            # or planned parent must *clearly* beat deriving from the
            # source before we stake the request's latency on it.
            edges.append((u, v, w if u == 0 else w / WIN_MARGIN))
        node.baseline_cost = true_cost[(0, v)]

    chosen = minimum_arborescence(len(nodes) + 1, root, edges)
    for node in nodes:
        if not node.requested:
            continue
        parent = chosen[node.index][0]
        node.parent = parent
        node.edge_cost = true_cost[(parent, node.index)]
        node.strategy = _strategy_label(nodes[parent], node)

    children: dict[int, list[int]] = {}
    ready: list[int] = []
    for node in nodes:
        if not node.requested:
            continue
        if nodes[node.parent].requested:
            children.setdefault(node.parent, []).append(node.index)
        else:
            ready.append(node.index)
    order: list[int] = []
    while ready:
        idx = ready.pop(0)
        order.append(idx)
        ready.extend(children.get(idx, []))

    return DerivationPlan(
        nodes=nodes,
        source_index=0,
        order=order,
        n_rows=n,
        est_independent=sum(x.baseline_cost for x in nodes if x.requested),
        est_planned=sum(x.edge_cost for x in nodes if x.requested),
        spec_nodes=spec_nodes,
    )


def _table_estimator(source: Table) -> CardinalityEstimator:
    """``source``'s estimator, remembered on the table while its rows stand.

    Built over the memo record's own row snapshot, so the estimates are
    always consistent with the witness that revalidates them; two
    threads racing here build equal estimators and either may win.
    """
    facts = source._facts()
    if facts.cardinality is None:
        facts.cardinality = CardinalityEstimator(facts.rows, facts.schema)
    return facts.cardinality


def _strategy_label(parent: PlanNode, node: PlanNode) -> str:
    if parent.kind == "source":
        if parent.spec is None:
            return "full-sort"
        if parent.spec.satisfies(node.spec):
            return "passthrough"
        return "modify"
    if parent.kind == "cached":
        if parent.spec == node.spec:
            return "cache-hit"
        return "modify-from-cache"
    return "derive"
