"""Benchmark harness: experiment drivers for every figure/table of the
paper, shared by ``benchmarks/`` (pytest-benchmark) and ``examples/``.
"""

from .harness import (
    BenchResult,
    format_table,
    time_callable,
)
from .figures import (
    run_fig10_cell,
    run_fig10_experiment,
    run_fig11_cell,
    run_fig11_experiment,
)

__all__ = [
    "BenchResult",
    "format_table",
    "time_callable",
    "run_fig10_cell",
    "run_fig10_experiment",
    "run_fig11_cell",
    "run_fig11_experiment",
]
