"""Internal (in-memory) sorts with shared instrumentation.

Three flavors:

* :func:`tournament_sort` — tree-of-losers over single-row runs, with
  offset-value codes formed on the fly (or injected by the caller, as
  segmented sorting does).  Produces output codes for free.
* :func:`quicksort_with_stats` — comparison-counted Python sort, the
  honest baseline for comparison counts.
* :func:`sort_baseline` — plain ``sorted()`` for wall-clock baselines
  where counting would distort timing.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Sequence

from ..ovc.compare import compare_plain
from ..ovc.stats import ComparisonStats
from .merge import _key_projector, kway_merge


def tournament_sort(
    rows: Sequence[tuple],
    key_positions: Sequence[int],
    stats: ComparisonStats,
    directions: Sequence[bool] | None = None,
    use_ovc: bool = True,
) -> tuple[list[tuple], list[tuple] | None]:
    """Sort rows with a tournament tree; returns ``(rows, ovcs)``.

    Every row enters as its own single-row run; its code is formed by
    the first full comparison it participates in.
    """
    runs = [([row], None) for row in rows]
    return kway_merge(runs, key_positions, stats, directions, use_ovc)


def quicksort_with_stats(
    rows: Sequence[tuple],
    key_positions: Sequence[int],
    stats: ComparisonStats,
    directions: Sequence[bool] | None = None,
) -> list[tuple]:
    """Python's sort driven by an instrumented three-way comparison."""
    project = _key_projector(key_positions, directions)
    keyed = [(project(row), row) for row in rows]

    def cmp(a, b) -> int:
        return compare_plain(a[0], b[0], stats)

    keyed.sort(key=cmp_to_key(cmp))
    return [row for _keys, row in keyed]


def sort_baseline(
    rows: Sequence[tuple],
    key_positions: Sequence[int],
    directions: Sequence[bool] | None = None,
) -> list[tuple]:
    """Fast uninstrumented sort (wall-clock baseline)."""
    project = _key_projector(key_positions, directions)
    return sorted(rows, key=project)
