"""Unified observability: span tracing + metrics for the whole engine.

The paper's claims are *work* claims — comparisons avoided, time spent
per method — so this package gives every layer (core modify pipeline,
fastpath kernels, external sort, engine operators, the service) one
way to say where the work went:

* :data:`TRACER` (:mod:`repro.obs.spans`) — nestable, monotonic-clock
  spans with a no-op singleton fast path when disabled;
* :data:`METRICS` (:mod:`repro.obs.metrics`) — named counters, gauges,
  and histograms generalizing
  :class:`~repro.ovc.stats.ComparisonStats`;
* :mod:`repro.obs.exporters` — JSON-lines (the span artifact format),
  Prometheus text exposition, and a human tree view;
* :data:`LOG` (:mod:`repro.obs.logging`) — structured JSON-lines
  events with query-id/span-id correlation;
* :data:`SLOWLOG` (:mod:`repro.obs.slowlog`) — threshold-gated
  slow-query captures (strategy, span tree, comparison counters);
* :mod:`repro.obs.server` — the live ``/metrics`` + ``/healthz`` +
  ``/varz`` HTTP endpoint (:func:`~repro.obs.server.
  start_telemetry_server`).

Quick use::

    from repro.obs import TRACER, METRICS
    from repro.obs.exporters import render_tree, write_jsonl

    TRACER.enable(); METRICS.enable()
    ... run a modify / query / sort ...
    print(render_tree(TRACER.records))
    write_jsonl("trace.jsonl", TRACER.drain(), METRICS.as_dict())

Environment knobs: ``REPRO_TRACE=1`` / ``REPRO_METRICS=1`` /
``REPRO_LOG=PATH`` / ``REPRO_SLOWLOG_MS=N`` enable collection at
import; the CLI flags ``--trace FILE`` / ``--metrics`` /
``--telemetry-port P`` (any experiment, ``python -m repro trace``,
``python -m repro serve``) do the same per run and export the
artifacts.  For *which code* inside a phase, profile with the standard
library: ``python -m cProfile -s cumtime -m repro table1``.
"""

from .logging import LOG, StructuredLogger
from .metrics import METRICS, Counter, Gauge, Histogram, MetricsRegistry
from .slowlog import SLOWLOG, SlowQueryLog
from .spans import NULL_SPAN, TRACER, Tracer

__all__ = [
    "TRACER",
    "Tracer",
    "NULL_SPAN",
    "METRICS",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "LOG",
    "StructuredLogger",
    "SLOWLOG",
    "SlowQueryLog",
]
