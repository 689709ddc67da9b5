"""Batch order-derivation planning (``repro.plan``).

The paper makes one sort order cheap to *modify* into a related one;
this package applies that result across a whole batch: given N target
orders over one source, it builds a minimum-cost derivation tree
(minimum spanning arborescence over cost-model edge weights, rooted at
whatever is already materialized — the source and any cache-resident
orders) and executes it, deriving each order from its cheapest parent
instead of from the source N times.  Entry points:

* :func:`derive_batch` — plan + execute in one call (what
  ``Query.order_by_many`` and the serving layer's micro-batching use);
* :func:`plan_batch` / :func:`execute_plan` — the two halves, for
  callers that want to inspect or EXPLAIN the plan first
  (``on_node=`` on the executing half reports each order as soon as
  it is derived);
* :meth:`DerivationPlan.explain` — the chosen tree as text.

Every node's rows and codes are bit-identical to what an independent
``Sort`` of that order would produce; counters describe the derivation
work actually performed (exactly the solo counters when the node is
derived straight from the source).
"""

from .arborescence import minimum_arborescence
from .cardinality import CardinalityEstimator
from .executor import BatchResult, NodeResult, derive_batch, execute_plan
from .planner import DerivationPlan, PlanNode, plan_batch

__all__ = [
    "BatchResult",
    "CardinalityEstimator",
    "DerivationPlan",
    "NodeResult",
    "PlanNode",
    "derive_batch",
    "execute_plan",
    "minimum_arborescence",
    "plan_batch",
]
