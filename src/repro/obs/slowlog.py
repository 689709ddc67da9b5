"""Threshold-gated slow-query log: full forensics for outliers only.

Always-on tracing of every query is too much data at serving scale;
no telemetry at all makes the one slow query of the hour undebuggable.
The slow-query log threads the needle: every ``Query`` terminal,
``Sort``, and ``modify_sort_order`` times itself, and only executions
that exceed :attr:`SlowQueryLog.threshold_ms` are captured — with the
resolved ``order_strategy``, the per-phase span tree (when the tracer
is enabled the entry embeds the exact spans that query recorded), and
its comparison-counter delta.  Everything else pays two
``perf_counter`` calls and one comparison.

Entries land in a bounded in-memory ring (:attr:`SlowQueryLog.entries`
— newest last, inspectable from tests, ``/varz``, and post-mortems)
and, when a file is configured, as JSON-lines on disk.  Each capture
also emits a ``slowlog.entry`` structured-log event and bumps the
``slowlog.entries`` counter, so dashboards see the *rate* of slow
queries even when nobody is reading the captures.

Environment: ``REPRO_SLOWLOG_MS`` (a float threshold) enables at
import; ``REPRO_SLOWLOG_FILE`` adds the JSON-lines sink.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any

from .metrics import METRICS
from .spans import TRACER, span_tree

#: Ring-buffer capacity for in-memory entries.
DEFAULT_CAPACITY = 256

#: Span-tree nodes kept per entry (forensics, not an archive).
MAX_TREE_NODES = 200


class SlowQueryLog:
    """Captures any query/modify slower than the configured threshold."""

    def __init__(self) -> None:
        #: Threshold in milliseconds; ``None`` disables capture.
        self.threshold_ms: float | None = None
        self.entries: deque[dict] = deque(maxlen=DEFAULT_CAPACITY)
        self._path: str | None = None
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.threshold_ms is not None

    # ----------------------------------------------------------- lifecycle

    def enable(
        self,
        threshold_ms: float,
        path: str | None = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        """Capture executions slower than ``threshold_ms`` (0 = all)."""
        if threshold_ms < 0:
            raise ValueError(
                f"threshold_ms must be non-negative, got {threshold_ms}"
            )
        self.threshold_ms = float(threshold_ms)
        self._path = path
        self.entries = deque(self.entries, maxlen=capacity)

    def disable(self) -> None:
        self.threshold_ms = None
        self._path = None

    def clear(self) -> None:
        self.entries.clear()

    # ------------------------------------------------------------- capture

    def mark(self) -> tuple[float, int] | None:
        """Start watching one execution; pass the mark to :meth:`record`.

        The mark pins the wall-clock start and the tracer's record
        index, so a slow capture can slice out exactly the spans this
        execution produced.  ``None`` while disabled (and
        :meth:`record` accepts ``None`` as a no-op), so call sites need
        no conditional.
        """
        if self.threshold_ms is None:
            return None
        spans_at = len(TRACER.records) if TRACER.enabled else -1
        return (time.perf_counter(), spans_at)

    def record(
        self,
        mark: tuple[float, int] | None,
        kind: str,
        *,
        strategy: str | None = None,
        stats: Any = None,
        **info: Any,
    ) -> dict | None:
        """Close a watched execution; capture it if over threshold.

        ``stats`` is a :class:`~repro.ovc.stats.ComparisonStats` (or
        anything with ``as_dict()``) holding the execution's counter
        *delta*.  Returns the entry when one was captured.
        """
        if mark is None or self.threshold_ms is None:
            return None
        t0, spans_at = mark
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        if elapsed_ms < self.threshold_ms:
            return None
        entry: dict[str, Any] = {
            "ts": round(time.time(), 6),
            "kind": kind,
            "elapsed_ms": round(elapsed_ms, 3),
            "threshold_ms": self.threshold_ms,
            "pid": os.getpid(),
        }
        from .logging import LOG

        qid = LOG.current_query_id()
        if qid is not None:
            entry["qid"] = qid
        if strategy is not None:
            entry["order_strategy"] = strategy
        if stats is not None:
            entry["comparisons"] = stats.as_dict()
        if spans_at >= 0 and TRACER.enabled:
            entry["phases"] = span_tree(
                TRACER.records[spans_at:], max_nodes=MAX_TREE_NODES
            )
        entry.update(info)
        with self._lock:
            self.entries.append(entry)
            if self._path is not None:
                try:
                    with open(self._path, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps(entry, default=str) + "\n")
                except OSError:
                    self._path = None  # a broken sink must not kill queries
        if METRICS.enabled:
            METRICS.counter("slowlog.entries").inc()
        LOG.event(
            "slowlog.entry",
            kind=kind,
            elapsed_ms=entry["elapsed_ms"],
            strategy=strategy,
        )
        return entry


#: The process-wide slow-query log.  ``REPRO_SLOWLOG_MS=250`` (ms)
#: enables at import; ``REPRO_SLOWLOG_FILE`` adds the JSON-lines sink.
SLOWLOG = SlowQueryLog()
if os.environ.get("REPRO_SLOWLOG_MS", "") not in ("", "0"):
    SLOWLOG.enable(
        float(os.environ["REPRO_SLOWLOG_MS"]),
        path=os.environ.get("REPRO_SLOWLOG_FILE") or None,
    )
