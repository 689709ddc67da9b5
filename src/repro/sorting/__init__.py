"""Sorting substrate: tournament trees, run generation, merging, and
internal/external merge sort — all offset-value-code aware.
"""

from .tournament import Entry, TreeOfLosers
from .merge import kway_merge
from .internal import tournament_sort, quicksort_with_stats, sort_baseline
from .run_generation import (
    generate_runs_load_sort,
    generate_runs_replacement_selection,
)
from .external import ExternalMergeSort, SortResult
from .insort import external_sort_grouped

__all__ = [
    "Entry",
    "TreeOfLosers",
    "kway_merge",
    "tournament_sort",
    "quicksort_with_stats",
    "sort_baseline",
    "generate_runs_load_sort",
    "generate_runs_replacement_selection",
    "ExternalMergeSort",
    "SortResult",
    "external_sort_grouped",
]
