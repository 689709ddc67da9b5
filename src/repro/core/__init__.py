"""The paper's contribution: modifying an existing sort order.

Pipeline:

1. :mod:`~repro.core.analysis` (compile time) — compare the existing
   and desired sort orders; decompose into shared prefix, infix (run
   definer), merge keys, and common tail; pick a Table 1 case and an
   execution strategy.
2. :mod:`~repro.core.classify` — split the input into segments and
   pre-existing runs purely from old offset-value codes.
3. :mod:`~repro.core.adjust` — rewrite old codes into codes for the new
   sort order (offset arithmetic, run-head derivation via the
   max-theorem) without column comparisons.
4. :mod:`~repro.core.merge_runs`, :mod:`~repro.core.segmented` —
   run-time executors; :mod:`~repro.core.modify` dispatches.
5. :mod:`~repro.core.cost` — cost model backing the ``auto`` method.
"""

from .analysis import ModificationPlan, Strategy, analyze_order_modification
from .classify import RowClass, classify_row, split_segments
from .modify import modify_sort_order
from .backward import reverse_table, reversed_spec
from .cost import CostModel, estimate_costs

__all__ = [
    "ModificationPlan",
    "Strategy",
    "analyze_order_modification",
    "RowClass",
    "classify_row",
    "split_segments",
    "modify_sort_order",
    "reverse_table",
    "reversed_spec",
    "CostModel",
    "estimate_costs",
]
