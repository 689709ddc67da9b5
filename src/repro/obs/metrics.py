"""Metrics registry: named counters, gauges, and histograms.

:class:`~repro.ovc.stats.ComparisonStats` counts the paper's five
comparison-economy measures, but it is a closed dataclass — every new
measurement (merge fan-in, run lengths, segment sizes, queue depth,
spill traffic) would mean another field threaded through every
executor signature.  The registry generalizes it: any instrumented site
names a metric and bumps it, and the whole set snapshots as one plain
dict.

Three instrument kinds:

* :class:`Counter` — monotonically increasing total (int or float).
* :class:`Gauge` — a level that moves both ways (admission-queue
  depth); also tracks its high-water mark.
* :class:`Histogram` — a distribution summarized as count/sum/min/max
  plus power-of-two buckets (bucket ``k`` counts observations with
  ``2**(k-1) < v <= 2**k``, bucket 0 those in ``[0, 1]``), which is
  exact enough for fan-ins, segment sizes and millisecond latencies.

Like the tracer, the registry is off by default and every hot call site
gates on :attr:`MetricsRegistry.enabled`, so the disabled cost is one
attribute check.

Name registry
-------------

Every metric name bumped anywhere in ``src/`` is listed here (a test
greps the source and checks this docstring, so the registry cannot
drift).  Counters:

* ``adjust.derived_codes`` / ``adjust.saved_run_heads`` — OVC
  adjustment economy in merge-of-runs.
* ``cache.hits`` / ``cache.misses`` / ``cache.installs`` /
  ``cache.evictions`` / ``cache.spills`` / ``cache.rehydrates`` /
  ``cache.rejected`` — order-cache lifecycle;
  ``cache.modify_serves`` (related order produced by modifying a
  cached one); ``cache.fingerprint_passes`` — O(n)
  fingerprint passes actually run (flat under repeat traffic: a
  table's fingerprint is memoized until its rows change).
* ``exec.mem.charged_bytes`` / ``exec.mem.pressure_events`` —
  memory-accountant activity.
* ``exec.spill.runs`` / ``exec.spill.bytes_written`` /
  ``exec.spill.bytes_read`` — spill-file traffic.
* ``extsort.respilled_rows`` — external-sort rows spilled again.
* ``log.events`` — structured-log lines emitted.
* ``merge.degraded_merges`` — merges that fell back to column compares.
* ``plan.batches`` / ``plan.nodes`` — batch derivation-planner runs
  and orders they produced; ``plan.fallbacks`` — orders whose
  executing ``Sort`` took another strategy than the planned one (a
  planned cached parent evicted before its turn).
* ``serve.requests`` / ``serve.cache_hits`` / ``serve.executions`` /
  ``serve.coalesced_requests`` — order-service traffic (requests
  submitted, exact cache hits answered at submit on the caller's
  thread, sorts run by scheduler threads, duplicates that shared
  another request's execution); ``serve.rejected_overload`` — admissions shed
  at the bounded queue; ``serve.deadline_exceeded`` — requests that
  missed their deadline (queued-expired or waited-too-long);
  ``serve.errors`` — executions that failed;
  ``serve.planned_requests`` / ``serve.planned_batches`` — requests
  drained in same-source micro-batch groups of two or more, and the
  groups; ``serve.normalized_orders`` — submitted orders
  truncated to their row-unique prefix.
* ``server.requests`` / ``server.errors`` — telemetry-endpoint traffic.
* ``slowlog.entries`` — slow-query captures.

Gauges:

* ``cache.bytes_resident`` / ``cache.entries`` — order-cache footprint.
* ``exec.mem.used_bytes`` / ``exec.mem.peak_bytes`` — accountant level.
* ``serve.queue_depth`` / ``serve.inflight`` — order-service
  admission-queue depth and in-flight executions.
* ``streaming.buffered_rows`` — streaming-merge buffer depth.

Histograms:

* ``extsort.fan_in`` / ``extsort.run_rows`` — external-sort shape.
* ``merge.fan_in`` / ``merge.run_rows`` — merge-of-runs shape.
* ``modify.segment_rows`` / ``segment.rows`` — segment-sort sizes.
* ``plan.batch_size`` — orders per planned batch;
  ``plan.est_speedup`` — the plan's estimated comparisons saved vs
  independent execution.
* ``serve.latency_ms`` — per-request submit-to-response latency;
  ``serve.fanout`` — waiters served per execution (coalescing win);
  ``serve.window_held_ms`` — how long a micro-batch window held its
  first request before closing (at most ``plan_window_ms``).

The ``comparisons.*`` family is dynamic (one counter per
:class:`~repro.ovc.stats.ComparisonStats` field via
:meth:`MetricsRegistry.absorb_stats`).
"""

from __future__ import annotations

import math
import os

from ..ovc.stats import ComparisonStats


class Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        self.value += n


class Gauge:
    __slots__ = ("value", "max")

    def __init__(self) -> None:
        self.value: float = 0
        self.max: float = 0

    def set(self, v: float) -> None:
        self.value = v
        if v > self.max:
            self.max = v

    def add(self, delta: float) -> None:
        self.set(self.value + delta)


class Histogram:
    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total: float = 0
        self.min: float | None = None
        self.max: float | None = None
        #: log2 bucket -> observation count.
        self.buckets: dict[int, int] = {}

    def observe(self, v: float) -> None:
        self.count += 1
        self.total += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v
        bucket = max(0, math.ceil(v) - 1).bit_length() if v >= 0 else -1
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Create-on-demand metric store."""

    __slots__ = ("enabled", "_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self.enabled = False
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # Instrument accessors ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    # Lifecycle --------------------------------------------------------------

    def enable(self, clear: bool = True) -> None:
        if clear:
            self.reset()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # Serialization ----------------------------------------------------------

    def absorb_stats(
        self, stats: ComparisonStats, prefix: str = "comparisons."
    ) -> None:
        """Publish a :class:`ComparisonStats` as named counters."""
        for name, value in stats.as_dict().items():
            self.counter(prefix + name).inc(value)

    def as_dict(self) -> dict:
        """JSON-ready snapshot of every metric.

        Safe to call from a scraper thread while instrumented code
        keeps bumping: each dict (and each histogram's buckets) is
        pinned with ``list()`` before iteration, so a concurrent
        create-on-demand insert can never blow up the snapshot.
        """
        return {
            "counters": {k: c.value for k, c in list(self._counters.items())},
            "gauges": {
                k: {"value": g.value, "max": g.max}
                for k, g in list(self._gauges.items())
            },
            "histograms": {
                k: {
                    "count": h.count,
                    "sum": h.total,
                    "min": h.min,
                    "max": h.max,
                    "buckets": {
                        str(b): n
                        for b, n in sorted(list(h.buckets.items()))
                    },
                }
                for k, h in list(self._histograms.items())
            },
        }


#: The process-wide registry; ``REPRO_METRICS=1`` enables at import.
METRICS = MetricsRegistry()
if os.environ.get("REPRO_METRICS", "") not in ("", "0"):
    METRICS.enable()
