"""External merge sort with spill accounting and phase-split statistics.

The classic pipeline: run generation fills memory and emits sorted
runs to (simulated) storage; merge steps combine up to ``fan_in`` runs
at a time until one run remains.  Statistics are kept separately for
the two phases because the paper's hypothesis 3 — *most comparisons
happen during run generation* — and hypothesis 7 — *pre-existing runs
save the run-generation I/O* — are phase-level claims.

The merge phase, :func:`merge_spilled`, also serves the stable
:func:`repro.core.external_modify.external_sort`; replacement selection
(unstable on ties) is this class's alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Sequence

from ..obs import METRICS, TRACER
from ..ovc.stats import ComparisonStats
from ..storage.pages import IoStats, PageManager, SpilledRun
from .merge import kway_merge
from .run_generation import (
    generate_runs_load_sort,
    generate_runs_replacement_selection,
)


@dataclass
class SortResult:
    """Outcome of an external sort: data plus a work breakdown."""

    rows: list[tuple]
    ovcs: list[tuple] | None
    run_generation_stats: ComparisonStats
    merge_stats: ComparisonStats
    io: IoStats
    initial_runs: int
    merge_levels: int

    @property
    def total_stats(self) -> ComparisonStats:
        return self.run_generation_stats + self.merge_stats


class ExternalMergeSort:
    """Configurable external merge sort.

    Parameters
    ----------
    memory_capacity:
        Rows that fit in sort memory; inputs at most this size sort
        internally with no spill.
    fan_in:
        Maximum runs merged per merge step (graceful degradation to
        multiple merge levels beyond that).
    run_generation:
        ``"replacement"`` (tree-of-losers replacement selection, runs
        about twice memory on random input) or ``"load_sort"``.
    page_manager:
        Destination for spill accounting; a private one is created when
        omitted.
    """

    def __init__(
        self,
        key_positions: Sequence[int],
        memory_capacity: int = 4096,
        fan_in: int = 16,
        run_generation: str = "replacement",
        directions: Sequence[bool] | None = None,
        page_manager: PageManager | None = None,
    ) -> None:
        if fan_in < 2:
            raise ValueError("fan-in must be at least 2")
        if run_generation not in ("replacement", "load_sort"):
            raise ValueError(f"unknown run generation mode {run_generation!r}")
        self.key_positions = tuple(key_positions)
        self.memory_capacity = memory_capacity
        self.fan_in = fan_in
        self.run_generation = run_generation
        self.directions = directions
        self.pages = page_manager if page_manager is not None else PageManager()

    def sort(self, rows: Sequence[tuple]) -> SortResult:
        with TRACER.span(
            "extsort.sort",
            rows=len(rows),
            capacity=self.memory_capacity,
            fan_in=self.fan_in,
        ):
            return self._sort(rows)

    def _sort(self, rows: Sequence[tuple]) -> SortResult:
        rungen_stats = ComparisonStats()
        merge_stats = ComparisonStats()
        io_before = self.pages.stats.snapshot()

        with TRACER.span(
            "extsort.run_generation", mode=self.run_generation
        ) as span:
            if self.run_generation == "replacement":
                runs = generate_runs_replacement_selection(
                    rows,
                    self.memory_capacity,
                    self.key_positions,
                    rungen_stats,
                    self.directions,
                )
            else:
                runs = generate_runs_load_sort(
                    rows,
                    self.memory_capacity,
                    self.key_positions,
                    rungen_stats,
                    self.directions,
                )
            span.set(runs=len(runs))
        initial_runs = len(runs)
        if METRICS.enabled:
            run_rows = METRICS.histogram("extsort.run_rows")
            for run, _ovcs in runs:
                run_rows.observe(len(run))
        if len(runs) <= 1:
            # Purely internal sort: no spill, no merge phase.
            out_rows, out_ovcs = runs[0] if runs else ([], [])
            levels = 0
        else:
            # Spill initial runs (run generation writes them out).
            spilled = [
                self.pages.spill_run(run, run_ovcs) for run, run_ovcs in runs
            ]
            out_rows, out_ovcs, levels = merge_spilled(
                spilled, self.key_positions, self.fan_in, self.pages,
                merge_stats, self.directions,
            )
        return SortResult(
            out_rows,
            out_ovcs,
            rungen_stats,
            merge_stats,
            self.pages.stats - io_before,
            initial_runs,
            levels,
        )


def merge_spilled(
    spilled: list[SpilledRun], key_positions: Sequence[int], fan_in: int,
    pages: PageManager, stats: ComparisonStats,
    directions: Sequence[bool] | None = None, use_ovc: bool = True,
) -> tuple[list[tuple], list[tuple] | None, int]:
    """Merge spilled runs ``fan_in`` at a time: ``(rows, ovcs, levels)``.
    Intermediate waves write back to ``pages``; ties keep run order."""
    if fan_in < 2:
        raise ValueError("fan-in must be at least 2")
    for levels in count(1):
        final_pass = len(spilled) <= fan_in
        with TRACER.span(
            "extsort.merge_pass", level=levels, runs_in=len(spilled), fan_in=fan_in
        ):
            next_level = []
            for start in range(0, len(spilled), fan_in):
                group = spilled[start : start + fan_in]
                if METRICS.enabled:
                    METRICS.histogram("extsort.fan_in").observe(len(group))
                with TRACER.span("extsort.merge_step", fan_in=len(group)):
                    run_data = [run.read() for run in group]
                    merged_rows, merged_ovcs = kway_merge(
                        run_data, key_positions, stats, directions, use_ovc
                    )
                if final_pass:
                    # Final merge streams to the consumer — no write-back.
                    return merged_rows, merged_ovcs, levels
                # Intermediate merge step: result goes back to storage.
                next_level.append(pages.spill_run(merged_rows, merged_ovcs))
                if METRICS.enabled:
                    METRICS.counter("extsort.respilled_rows").inc(
                        len(merged_rows)
                    )
        spilled = next_level
