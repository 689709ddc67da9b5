"""Query-optimization slice: interesting orderings and order enforcers.

Hypothesis 10 of the paper: interesting orderings should be expanded
beyond *using* an existing sort order — the optimizer should also plan
*modifications* of existing sort orders.  This package provides:

* :mod:`~repro.optimizer.orderings` — ordering satisfaction tests with
  reduction by constants and functional dependencies (Simmen et al.);
* :mod:`~repro.optimizer.planner` — cost-based choice of the cheapest
  order enforcer (none / segmented / merge pre-existing runs / combined
  / full sort) and merge-join planning over available indexes.
"""

from .orderings import OrderingContext, reduce_spec, satisfies_with_context
from .planner import EnforcerChoice, choose_enforcer, plan_merge_join
from .join_planning import JoinEdge, PlanNode, Relation, plan_joins
from .physical_design import RequiredOrdering, design_indexes

__all__ = [
    "OrderingContext",
    "reduce_spec",
    "satisfies_with_context",
    "EnforcerChoice",
    "choose_enforcer",
    "plan_merge_join",
    "JoinEdge",
    "PlanNode",
    "Relation",
    "plan_joins",
    "RequiredOrdering",
    "design_indexes",
]
