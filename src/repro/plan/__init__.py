"""Batch order-derivation planning (``repro.plan``).

The paper makes one sort order cheap to *modify* into a related one
that already exists; this package applies that result across a whole
batch: given N target orders over one source, it plans them once —
every order's cheapest materialized parent, the source or a
cache-resident order, chosen by the rule a solo cached ``Sort`` follows
— and then runs every order through that ``Sort``.  Entry points:

* :func:`derive_batch` — plan + execute in one call (what
  ``Query.order_by_many`` uses);
* :func:`plan_batch` — the prediction alone, for callers that want to
  inspect or EXPLAIN it;
* :meth:`DerivationPlan.explain` — the chosen parents as text.

Every order's rows and codes are exactly what an independent ``Sort``
of that order produces, because that ``Sort`` is what runs.
"""

from .executor import BatchResult, NodeResult, derive_batch
from .planner import DerivationPlan, PlanNode, plan_batch

__all__ = [
    "BatchResult",
    "DerivationPlan",
    "NodeResult",
    "PlanNode",
    "derive_batch",
    "plan_batch",
]
