"""repro.exec — resource-governed execution.

The governance layer added in PR 4: one
:class:`~repro.exec.config.ExecutionConfig` carries every execution
knob (engine, merge fan-in cap, memory budget, spill directory,
observability requests, cache and service settings) through
``modify_sort_order``, ``modify_sort_order_external``, ``Sort``,
``StreamingModify``, ``Query.order_by``, and the CLI.

* :mod:`repro.exec.config` — ``ExecutionConfig`` / ``parse_memory``.
* :mod:`repro.exec.memory` — ``MemoryAccountant``, the per-query byte
  ledger every buffering site charges.
* :mod:`repro.exec.spill` — real spill-to-disk of buffered runs.
* :mod:`repro.exec.buffers` — ``GovernedSink``, the budget-governed
  output buffer (spills when over budget, restores bit-identically).
"""

from .config import ExecutionConfig, parse_memory
from .memory import MemoryAccountant
from .spill import SpillManager

__all__ = [
    "ExecutionConfig",
    "parse_memory",
    "MemoryAccountant",
    "SpillManager",
]
