"""Batch order-derivation planning (``repro.plan``).

The paper makes one sort order cheap to *modify* into a related one
that already exists; this package applies that result across a whole
batch: given N target orders over one source, it plans them once —
every order's cheapest materialized parent, the source or a
cache-resident order, chosen by the rule a solo cached ``Sort`` follows
— and executes the plan.  Entry points:

* :func:`derive_batch` — plan + execute in one call (what
  ``Query.order_by_many`` and the serving layer's micro-batching use);
* :func:`plan_batch` / :func:`execute_plan` — the two halves, for
  callers that want to inspect or EXPLAIN the plan first
  (``on_node=`` on the executing half reports each order as soon as
  it is derived);
* :meth:`DerivationPlan.explain` — the chosen parents as text.

Every node's rows and codes are bit-identical to what an independent
``Sort`` of that order would produce; counters describe the derivation
work actually performed (exactly the solo counters when the node is
derived straight from the source).
"""

from .executor import BatchResult, NodeResult, derive_batch, execute_plan
from .planner import DerivationPlan, PlanNode, plan_batch

__all__ = [
    "BatchResult",
    "DerivationPlan",
    "NodeResult",
    "PlanNode",
    "derive_batch",
    "execute_plan",
    "plan_batch",
]
