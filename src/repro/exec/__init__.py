"""repro.exec — execution configuration and byte accounting.

One :class:`~repro.exec.config.ExecutionConfig` carries every execution
knob (engine, merge fan-in cap, spill directory, cache and service
settings) through ``modify_sort_order``, ``Sort``, ``StreamingModify``,
``Query.order_by``, ``OrderService`` and the CLI.

* :mod:`repro.exec.config` — ``ExecutionConfig`` / ``parse_memory``.
* :mod:`repro.exec.memory` — ``MemoryAccountant``, the order cache's
  byte ledger (budgeted by ``cache_budget``); ``rows_nbytes``, the page
  model's size of a row batch.
* :mod:`repro.exec.spill` — ``SpillManager``, the spill files the order
  cache moves cold entries to.
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
