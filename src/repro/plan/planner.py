"""Batch order-derivation planning.

Given N pending target orders over one source table, pick for every
target the cheapest *materialized* parent to derive it from — the
source itself or a cache-resident order of the same row sequence —
by the very rule a solo cached ``Sort`` follows
(:func:`repro.cache.dispatch._cheapest_parent`: exact offset-count
histograms priced by the cost model, an exact hit first, any other
cached order only when it beats the source by ``WIN_MARGIN``).  A
planned order is therefore derived exactly as it would have been on its
own, and reported costs are the dispatcher's estimates.

A requested order is never the parent of another: on the fast kernels,
deriving from a just-derived sibling costs more than deriving from the
source (a fresh parent table whose key columns are normalized anew,
plus a tie re-break onto the source; EXPERIMENTS.md, "The batch-planner
verdict").  With every parent materialized, each order's choice is
independent of the others, so the cheapest derivation tree is every
order's cheapest parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cache.dispatch import _cheapest_parent, _names, _source_counts
from ..model import SortSpec, Table


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
    #: Cost estimate of the chosen edge into this node.
    edge_cost: float = 0.0
    #: Cost of deriving this node straight from the source.
    baseline_cost: float = 0.0
    #: Planned execution path: ``passthrough``, ``full-sort``,
    #: ``modify``, ``cache-hit``, ``modify-from-cache``.
    strategy: str = ""


@dataclass
class DerivationPlan:
    """Every requested order's chosen parent plus the cost accounting."""

    nodes: list[PlanNode]
    source_index: int
    #: Requested node indexes in execution (request) order.
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
        """Human-readable tree: each materialized parent, its orders."""
        children: dict[int, list[int]] = {}
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
            f"derivation plan: {len(self.order)}"
            f" order(s) over {self.n_rows} rows,"
            f" est {self.est_speedup:.2f}x vs independent"
        ]
        for n in self.nodes:
            if n.requested or (n.index not in children and n.kind != "source"):
                continue
            lines.append(label(n))
            kids = children.get(n.index, [])
            for i, child in enumerate(kids):
                branch = "└─ " if i == len(kids) - 1 else "├─ "
                lines.append(branch + label(self.nodes[child]))
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
    resident orders for this source in as candidate parents — unless
    ``source`` is ordered without codes, where a solo ``Sort`` would not
    consult the cache either.  A node's ``strategy`` and parent predict
    the ``Sort.order_strategy`` that :func:`~repro.plan.derive_batch`
    will execute it with.
    """
    nodes = [PlanNode(0, source.sort_spec, "source", False)]
    candidates = []
    if (
        cache is not None
        and fingerprint is not None
        and (source.sort_spec is None or source.ovcs is not None)
    ):
        candidates = cache.candidates(fingerprint)
    node_of = {}
    for cand in candidates:
        node_of[id(cand)] = len(nodes)
        nodes.append(PlanNode(len(nodes), cand.spec, "cached", False))
    counts = _source_counts(source)

    order: list[int] = []
    spec_nodes: dict[SortSpec, int] = {}
    for spec in dict.fromkeys(specs):
        idx = len(nodes)
        node = PlanNode(idx, spec, "requested", True)
        if source.sort_spec is not None and source.sort_spec.satisfies(spec):
            # A solo Sort passes through before it asks the cache.
            node.parent, node.strategy = 0, "passthrough"
        else:
            best, node.edge_cost, node.baseline_cost = _cheapest_parent(
                source, spec, candidates, counts
            )
            node.parent = 0 if best is None else node_of[id(best)]
            node.strategy = _strategy_label(nodes[node.parent], spec)
        nodes.append(node)
        order.append(idx)
        spec_nodes[spec] = idx

    return DerivationPlan(
        nodes=nodes,
        source_index=0,
        order=order,
        n_rows=len(source.rows),
        est_independent=sum(nodes[i].baseline_cost for i in order),
        est_planned=sum(nodes[i].edge_cost for i in order),
        spec_nodes=spec_nodes,
    )


def _strategy_label(parent: PlanNode, spec: SortSpec) -> str:
    if parent.kind == "source":
        return "full-sort" if parent.spec is None else "modify"
    if parent.spec == spec:
        return "cache-hit"
    return "modify-from-cache"
