"""Structured JSON-lines logging with span and query correlation.

Spans answer *where time went*; metrics answer *how much work
happened*; this module answers *what the system decided* — the
discrete, low-frequency events an operator greps when a query behaved
strangely: which strategy a modify resolved to, why the cache declined
to serve, when the memory budget tipped into pressure.  One event is one JSON object on one line,
so the log tails, greps, and loads into any log pipeline without a
parser.

Correlation keys stitch the event stream to the other planes:

* ``qid`` — a process-unique query id.  :meth:`StructuredLogger.
  query_scope` opens one at each public entry point (``Query``
  terminals, ``Sort``, ``modify_sort_order``); nested scopes reuse the
  enclosing id, so every event inside one logical query carries the
  same ``qid`` no matter how deep it was emitted.
* ``span`` / ``span_name`` — the innermost open span of the process
  tracer at emission time (only when tracing is enabled), linking an
  event into the span tree exported by :mod:`repro.obs.exporters`.

Every record also carries ``ts`` (epoch seconds), ``pid``, and
``event``.  Like the tracer and the metrics registry, the logger is a
process-wide singleton (:data:`LOG`) that is **off by default**; every
call site gates on :attr:`StructuredLogger.enabled`, so the disabled
cost is one attribute check.  ``REPRO_LOG=PATH`` (or ``stderr`` /
``stdout``) enables it at import.

Events are deliberately *decision-grade*, never per row: strategies
chosen, cache verdicts, spills, pressure transitions, slow-query
captures.  Volume stays proportional to queries, not to data.
"""

from __future__ import annotations

import io
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, TextIO

from .metrics import METRICS
from .spans import TRACER


class StructuredLogger:
    """JSON-lines event sink with query-scope correlation."""

    def __init__(self) -> None:
        self.enabled = False
        self._stream: TextIO | None = None
        self._path: str | None = None
        self._owns_stream = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._qid_lock = threading.Lock()
        self._next_qid = 1

    # ----------------------------------------------------------- lifecycle

    def enable(self, target: str | TextIO = "stderr") -> None:
        """Start logging to ``target``: a path, ``"stderr"``/``"stdout"``,
        or an open text stream (not closed on :meth:`disable`)."""
        self.disable()
        if target == "stderr":
            self._stream, self._owns_stream = sys.stderr, False
        elif target in ("stdout", "-"):
            self._stream, self._owns_stream = sys.stdout, False
        elif isinstance(target, str):
            self._stream = open(target, "a", encoding="utf-8")
            self._path = target
            self._owns_stream = True
        else:
            self._stream, self._owns_stream = target, False
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False
        stream, owns = self._stream, self._owns_stream
        self._stream = None
        self._path = None
        self._owns_stream = False
        if owns and stream is not None:
            try:
                stream.close()
            except OSError:  # pragma: no cover - best-effort close
                pass

    @property
    def path(self) -> str | None:
        """The log file path, when logging to a file."""
        return self._path

    # --------------------------------------------------------- correlation

    def current_query_id(self) -> int | None:
        """The query id of the innermost open :meth:`query_scope`."""
        return getattr(self._local, "qid", None)

    @contextmanager
    def query_scope(self) -> Iterator[int | None]:
        """Correlate everything inside with one query id.

        The outermost scope on a thread allocates a fresh id; nested
        scopes (a ``Sort`` inside a ``Query``, a ``modify`` inside a
        ``Sort``) reuse it, so one logical query logs one ``qid``.
        Cheap no-op while the logger (and the slow-query log, which
        shares the ids) is disabled.
        """
        from .slowlog import SLOWLOG

        if not (self.enabled or SLOWLOG.enabled):
            yield None
            return
        existing = getattr(self._local, "qid", None)
        if existing is not None:
            yield existing
            return
        with self._qid_lock:
            qid = self._next_qid
            self._next_qid += 1
        self._local.qid = qid
        try:
            yield qid
        finally:
            self._local.qid = None

    # ------------------------------------------------------------ emission

    def event(self, event: str, **fields: Any) -> None:
        """Emit one structured event (no-op while disabled).

        ``fields`` become top-level JSON keys; non-JSON values are
        stringified rather than refused, because a log line that drops
        is worse than a log line that stringifies.
        """
        if not self.enabled:
            return
        record: dict[str, Any] = {
            "ts": round(time.time(), 6),
            "event": event,
            "pid": os.getpid(),
        }
        qid = getattr(self._local, "qid", None)
        if qid is not None:
            record["qid"] = qid
        if TRACER.enabled:
            current = TRACER._current
            if current is not None:
                record["span"] = current.sid
                record["span_name"] = current.name
        record.update(fields)
        try:
            line = json.dumps(record, default=str)
        except (TypeError, ValueError):  # pragma: no cover - paranoid
            line = json.dumps({"ts": record["ts"], "event": event,
                               "pid": record["pid"], "malformed": True})
        stream = self._stream
        if stream is None:
            return
        with self._lock:
            try:
                stream.write(line + "\n")
                stream.flush()
            except (OSError, ValueError):
                # A closed or broken sink must never take a query down.
                self.enabled = False
                return
        if METRICS.enabled:
            METRICS.counter("log.events").inc()


def read_log(path: str) -> list[dict]:
    """Load a JSON-lines log file back as a list of event dicts."""
    events: list[dict] = []
    with io.open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


#: The process-wide structured logger.  ``REPRO_LOG=PATH`` (or
#: ``stderr``/``stdout``) enables it at import, like ``REPRO_TRACE``.
LOG = StructuredLogger()
if os.environ.get("REPRO_LOG", "") not in ("", "0"):
    LOG.enable(os.environ["REPRO_LOG"])
