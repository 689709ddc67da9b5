"""repro.exec — resource-governed execution.

The governance layer added in PR 4: one
:class:`~repro.exec.config.ExecutionConfig` carries every execution
knob (engine, workers, merge fan-in cap, memory budget, spill
directory, retry/timeout policy, observability requests) through
``modify_sort_order``, ``modify_sort_order_external``, ``Sort``,
``StreamingModify``, ``Query.order_by``, and the CLI.

* :mod:`repro.exec.config` — ``ExecutionConfig`` / ``RetryPolicy`` /
  ``parse_memory``.
* :mod:`repro.exec.memory` — ``MemoryAccountant``, the per-query byte
  ledger every buffering site charges.
* :mod:`repro.exec.spill` — real spill-to-disk of buffered runs.
* :mod:`repro.exec.buffers` — ``GovernedSink``, the budget-governed
  output buffer (spills when over budget, restores bit-identically).
* :mod:`repro.exec.faults` — deterministic kill/hang/corrupt/error
  injection for the fault-tolerant worker pool.
"""

from .config import ExecutionConfig, RetryPolicy, parse_memory
from .faults import Fault, parse_faults
from .memory import MemoryAccountant
from .spill import SpillManager

__all__ = [
    "ExecutionConfig",
    "RetryPolicy",
    "parse_memory",
    "MemoryAccountant",
    "SpillManager",
    "Fault",
    "parse_faults",
]
