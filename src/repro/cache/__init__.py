"""Order cache: serve repeat ``order_by`` traffic by modifying cached
sort orders instead of re-sorting.

The paper's thesis is that a sort order plus its offset-value codes is
a reusable asset — producing a *related* order from it costs far less
than sorting from scratch.  Within one :func:`~repro.core.modify.
modify_sort_order` call the repo has exploited that since PR 1; this
package exploits it **across requests**: every executed ``Sort``
installs its output (rows *and* codes) into an in-process
:class:`OrderCache` keyed by a content fingerprint of the source rows
plus the requested :class:`~repro.model.SortSpec`, and later requests
against the same data are answered from the cache — verbatim for the
same order, or, when the source is unordered, through the paper's
order-modification machinery for a related one
(:mod:`repro.cache.dispatch` picks the cheapest cached starting point
with the cost model; a source sorted with codes is its own parent).

Usage is governed by :class:`~repro.exec.ExecutionConfig`:

* ``cache="off"`` (default) — never touch the cache;
* ``cache="on"`` — use the process-wide cache: the one
  :func:`configure_cache` made, or else one created on first use with
  the config's ``cache_budget`` / ``spill_dir``.

An entry is keyed by the exact row sequence it permutes, so it never
goes stale and has no lifetime; the byte budget bounds memory.

Environment: ``REPRO_CACHE`` / ``REPRO_CACHE_BUDGET`` /
``REPRO_SPILL_DIR``.  Observability: ``cache.hits`` / ``cache.misses``
/ ``cache.installs`` / ``cache.evictions`` / ``cache.spills`` / ``cache.rehydrates`` / ``cache.modify_serves``
counters and ``cache.bytes_resident`` / ``cache.entries`` gauges.
"""

from __future__ import annotations

import atexit
import threading

from ..exec.config import ExecutionConfig
from .dispatch import ServeOutcome, install_result, serve
from .fingerprint import Fingerprint, fingerprint_rows, fingerprint_table
from .store import CachedOrder, OrderCache

__all__ = [
    "CachedOrder",
    "Fingerprint",
    "OrderCache",
    "ServeOutcome",
    "configure_cache",
    "fingerprint_rows",
    "fingerprint_table",
    "get_cache",
    "install_result",
    "reset_cache",
    "resolve_cache",
    "serve",
]

_LOCK = threading.RLock()
_CACHE: OrderCache | None = None


def get_cache() -> OrderCache | None:
    """The process-wide order cache, if one has been created."""
    return _CACHE


def configure_cache(
    budget: int | None = None,
    spill_dir: str | None = None,
) -> OrderCache:
    """Create (replacing any previous) the process-wide order cache."""
    global _CACHE
    with _LOCK:
        if _CACHE is not None:
            _CACHE.close()
        _CACHE = OrderCache(budget=budget, spill_dir=spill_dir)
        return _CACHE


def reset_cache() -> None:
    """Close and discard the process-wide cache (idempotent)."""
    global _CACHE
    with _LOCK:
        if _CACHE is not None:
            _CACHE.close()
            _CACHE = None


def resolve_cache(config: ExecutionConfig) -> OrderCache | None:
    """The cache a given config asks for (``None`` = stay cold).

    ``"on"`` lazily creates the process-wide cache from the config's
    ``cache_budget`` / ``spill_dir`` the first time;
    an existing cache is reused as-is (first configuration wins —
    reconfigure explicitly via :func:`configure_cache`).
    """
    if config.cache == "off":
        return None
    cache = _CACHE
    if cache is not None:
        return cache
    with _LOCK:
        if _CACHE is None:
            return configure_cache(
                budget=config.cache_budget, spill_dir=config.spill_dir
            )
        return _CACHE


atexit.register(reset_cache)
