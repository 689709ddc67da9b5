"""In-sort duplicate removal and aggregation.

Graefe & Do (EDBT 2023) extend offset-value codes to the *in-sort*
logic of "distinct" and "group by": when sorting anyway, duplicates
should collapse as early as possible — inside run generation and after
every merge level — so later levels move and compare less data.  The
codes make detection free: a row is a duplicate of its predecessor
exactly when its offset reaches the key arity.

:func:`external_sort_grouped` runs a full external merge sort over
grouping keys, folding aggregate state at every level.  On inputs with
heavy duplication the data volume collapses after the first level,
which is precisely the early-aggregation effect.
"""

from __future__ import annotations

from typing import Sequence

from ..aggregates import AGG_FINISH, AGG_INIT, AGG_MERGE, AGG_STEP
from ..ovc.stats import ComparisonStats
from ..storage.pages import PageManager
from .merge import _key_projector, kway_merge
from .run_generation import generate_runs_load_sort


def _collapse(
    rows: Sequence[tuple],
    ovcs: Sequence[tuple],
    arity: int,
    aggs,
    stats: ComparisonStats,
) -> tuple[list[tuple], list[tuple]]:
    """Fold runs of duplicate keys into one row of aggregate state.

    Rows are ``key + state`` tuples; duplicates are found from codes
    (:func:`repro.engine.groups.groups`) without any comparison.
    """
    # Imported here: the engine package imports the sorting package.
    from ..engine.groups import Fold, groups

    out_rows: list[tuple] = []
    out_ovcs: list[tuple] = []
    fold = Fold(arity)
    project = _key_projector(range(arity), None)
    for key, head, code, rest in groups(zip(rows, ovcs), project, arity, stats):
        state = head[arity:]
        for row in rest:
            state = tuple(
                AGG_MERGE[fn](held, value)
                for (fn, _c), held, value in zip(aggs, state, row[arity:])
            )
        out_rows.append(key + tuple(state))
        out_ovcs.append(fold.keep(code))
    stats.rows_moved += len(out_rows)
    return out_rows, out_ovcs


def external_sort_grouped(
    rows: Sequence[tuple],
    key_positions: Sequence[int],
    aggregates: Sequence[tuple] = (("count", None),),
    memory_capacity: int = 4096,
    fan_in: int = 16,
    stats: ComparisonStats | None = None,
    page_manager: PageManager | None = None,
) -> tuple[list[tuple], ComparisonStats, dict]:
    """External merge sort with early aggregation.

    Returns ``(result_rows, stats, info)`` where result rows are
    ``group key + one column per aggregate`` in key order, and ``info``
    records the data volume after each level (``rows_per_level``).
    ``avg`` is not supported (its state is not a scalar); compose it
    from ``sum`` and ``count``.
    """
    for fn, _col in aggregates:
        if fn not in AGG_MERGE:
            raise ValueError(
                f"aggregate {fn!r} cannot fold in-sort; use sum/count/min/"
                "max/first/last"
            )
    stats = stats if stats is not None else ComparisonStats()
    pages = page_manager if page_manager is not None else PageManager()
    arity = len(key_positions)

    # Seed rows: key columns + initial aggregate state.
    def seed(row: tuple) -> tuple:
        key = tuple(row[p] for p in key_positions)
        state = []
        for fn, col in aggregates:
            slot = AGG_INIT[fn]()
            AGG_STEP[fn](slot, None if col is None else row[col])
            state.append(AGG_FINISH[fn](slot))
        return key + tuple(state)

    seeded = [seed(row) for row in rows]
    seeded_positions = tuple(range(arity))

    levels: dict = {"rows_per_level": []}
    runs = generate_runs_load_sort(
        seeded, memory_capacity, seeded_positions, stats
    )
    # Collapse inside each initial run (in-sort distinct).
    collapsed = []
    for run_rows, run_ovcs in runs:
        collapsed.append(_collapse(run_rows, run_ovcs, arity, aggregates, stats))
    levels["rows_per_level"].append(sum(len(r) for r, _o in collapsed))
    spilled = [pages.spill_run(r, o) for r, o in collapsed]

    while len(spilled) > 1:
        next_level = []
        for start in range(0, len(spilled), fan_in):
            group = [run.read() for run in spilled[start : start + fan_in]]
            merged_rows, merged_ovcs = kway_merge(
                group, seeded_positions, stats
            )
            folded_rows, folded_ovcs = _collapse(
                merged_rows, merged_ovcs, arity, aggregates, stats
            )
            if len(spilled) > fan_in:
                next_level.append(pages.spill_run(folded_rows, folded_ovcs))
            else:
                levels["rows_per_level"].append(len(folded_rows))
                return folded_rows, stats, levels
        spilled = next_level
        levels["rows_per_level"].append(sum(len(r) for r in spilled))

    if spilled:
        final_rows, _ovcs = spilled[0].read()
        return list(final_rows), stats, levels
    return [], stats, levels
