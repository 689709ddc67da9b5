"""Timing and table rendering for the experiment drivers.

The paper runs at 2^20 rows on a C++ engine; pure Python pays a large
constant factor, so the benchmarks default to 2^14 rows and scale up
via the ``REPRO_SCALE`` environment variable (the exponent delta, read
by ``benchmarks/conftest.py``: ``REPRO_SCALE=6`` restores the paper's
2^20).  Comparison *counts* are scale-dependent but machine-independent;
run-time *shapes* (who wins, where crossovers fall) are preserved at
the default scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..ovc.stats import ComparisonStats


@dataclass
class BenchResult:
    """One experiment cell: wall time plus the work counters."""

    label: str
    seconds: float
    stats: ComparisonStats = field(default_factory=ComparisonStats)
    extra: dict = field(default_factory=dict)

    @property
    def column_comparisons(self) -> int:
        return self.stats.column_comparisons

    @property
    def row_comparisons(self) -> int:
        return self.stats.row_comparisons

    def as_row(self) -> dict:
        row = {
            "label": self.label,
            "seconds": round(self.seconds, 4),
            "row_cmp": self.stats.row_comparisons,
            "col_cmp": self.stats.column_comparisons,
            "ovc_cmp": self.stats.ovc_comparisons,
        }
        row.update(self.extra)
        return row


def time_callable(label: str, fn: Callable[[ComparisonStats], dict | None]) -> BenchResult:
    """Run ``fn(stats)`` once, timing it; ``fn`` may return extras."""
    stats = ComparisonStats()
    start = time.perf_counter()
    extra = fn(stats)
    elapsed = time.perf_counter() - start
    return BenchResult(label, elapsed, stats, extra or {})


def format_table(rows: Sequence[dict], title: str | None = None) -> str:
    """Fixed-width table like the ones a paper appendix would print."""
    if not rows:
        return title or "(no rows)"
    headers = list(rows[0].keys())
    cells = [[_fmt(r.get(h, "")) for h in headers] for r in rows]
    widths = [
        max(len(h), *(len(row[i]) for row in cells))
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    if isinstance(value, int) and abs(value) >= 10_000:
        return f"{value:,}"
    return str(value)
