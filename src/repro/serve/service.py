"""OrderService: the concurrent order-by serving layer.

One in-process service owns the workload-level concerns that a solo
``Query.order_by`` call cannot see:

* **Admission control** — a bounded queue
  (:class:`~repro.serve.queue.AdmissionQueue`, depth =
  ``config.service_queue_depth``); a full queue raises
  :class:`~repro.serve.ServiceOverloadError` at submit instead of
  buffering unboundedly.
* **Duplicate coalescing** — an in-flight registry keyed by the order
  cache's content fingerprint plus the target order: N concurrent
  identical requests cost *one* execution, whose result fans out to
  every waiter with the execution's comparison counters replayed — so
  each response is bit-identical (rows, codes, counters) to a solo
  serial uncached run.
* **Deadlines** — per-request deadlines (default
  ``config.service_deadline_ms``); requests that expire in the queue
  are skipped without execution, and waiters that outlive their
  deadline fail with :class:`~repro.serve.DeadlineExceededError`.
* **Tenant fairness** — the queue round-robins across tenants, so one
  tenant's backlog cannot starve another's single request.
* **Order normalization** — submitted orders are truncated to their
  shortest row-unique prefix (:mod:`repro.serve.normalize`), so
  trivially equivalent targets (trailing keys implied by a unique
  prefix) coalesce instead of executing separately.
* **Micro-batch planning** — with ``config.plan_window_ms`` set, a
  scheduler thread holds its first request while more keep arriving —
  the window is an upper bound, closed early by one wait of an eighth
  of it that brings nothing — and hands same-source groups of distinct
  orders to the batch derivation planner (:mod:`repro.plan`), which
  plans the group once and derives each order from its cheapest
  materialized parent (the source or a cached order), by the rule a
  solo request follows.  Each request is answered the moment its own
  order is derived, not when the batch is done; a batch that fails
  part-way re-runs solo only what it had not yet answered.  Rows and
  codes stay bit-identical per request.

Executions run on ``config.service_threads`` scheduler threads, each
through the ordinary :class:`~repro.engine.sort_op.Sort` operator with
the service's :class:`~repro.exec.ExecutionConfig` — which means the
order cache (``config.cache``), governance, and all telemetry engage exactly as they would for a direct call.  Queue and
in-flight source buffers are charged to the service's
:class:`~repro.exec.memory.MemoryAccountant` under the
``serve.inflight`` category.

What a request costs besides its execution: the coalescing key needs
the source's content fingerprint and the ledger its accounted size —
both O(n) over the rows, both memoized on the caller's
:class:`~repro.model.Table` (revalidated against a snapshot of its
rows, so tables may be edited between requests), so a submit over an
unchanged table is O(1) bookkeeping.  The same ``Table`` object is what
``Sort`` and the cache are handed, so they find the memo too, and a
materialized result travels back as a table — the response's lists are
C-level copies of the cache entry's, never a row-by-row re-collection.
With the cache warm, a repeat request is a dictionary lookup.

Observability: ``serve.*`` counters/gauges/histograms in the metrics
registry, decision-grade ``serve.*`` structured-log events, and a
``service`` health check on ``/healthz``.
"""

from __future__ import annotations

import threading
import time

from ..cache.fingerprint import fingerprint_table
from ..engine.scans import TableScan
from ..engine.sort_op import Sort
from ..exec.config import ExecutionConfig
from ..exec.memory import MemoryAccountant, _table_nbytes
from ..model import SortSpec, Table
from ..obs import LOG, METRICS
from ..ovc.stats import ComparisonStats
from .errors import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadError,
)
from .normalize import SpecNormalizer
from .queue import AdmissionQueue
from .registry import InflightRegistry
from .request import Inflight, OrderResponse

#: Sentinel: "use the service's default deadline" (``None`` means
#: explicitly no deadline, so it cannot double as the default).
_DEFAULT_DEADLINE = object()

#: A micro-batch window closes early once this fraction of it (1/8)
#: passes without an arrival; see :meth:`OrderService._drain_batch`.
_IDLE_DIVISOR = 8

#: The most recently created, not-yet-closed service (for /healthz).
_CURRENT: "OrderService | None" = None


def current_service() -> "OrderService | None":
    """The live service this process most recently created, if any."""
    return _CURRENT


class Ticket:
    """A submitted request's handle; :meth:`result` blocks for the answer."""

    __slots__ = (
        "_service", "_entry", "tenant", "submitted_at", "deadline_at",
        "coalesced", "_deadline_counted",
    )

    def __init__(
        self,
        service: "OrderService",
        entry: Inflight,
        tenant: str,
        submitted_at: float,
        deadline_at: float | None,
        coalesced: bool,
    ) -> None:
        self._service = service
        self._entry = entry
        self.tenant = tenant
        self.submitted_at = submitted_at
        self.deadline_at = deadline_at
        self.coalesced = coalesced
        self._deadline_counted = False

    @property
    def done(self) -> bool:
        return self._entry.done.is_set()

    def _count_deadline_once(self) -> None:
        if not self._deadline_counted:
            self._deadline_counted = True
            self._service._count("deadline_exceeded")
            if METRICS.enabled:
                METRICS.counter("serve.deadline_exceeded").inc()

    def _deadline_exceeded(self, detail: str) -> DeadlineExceededError:
        self._count_deadline_once()
        return DeadlineExceededError(detail)

    def result(self, timeout: float | None = None) -> OrderResponse:
        """Wait for the shared execution and build this waiter's response.

        Raises :class:`DeadlineExceededError` past the request's
        deadline, ``TimeoutError`` past an explicit ``timeout``, or the
        execution's own error.  On success the response replays the
        execution's comparison counters into a fresh
        :class:`~repro.ovc.stats.ComparisonStats`, so every coalesced
        waiter reads the counts its own solo execution would have
        produced.
        """
        entry = self._entry
        clock = self._service._clock
        if self.deadline_at is not None:
            remaining = max(self.deadline_at - clock(), 0.0)
            wait = remaining if timeout is None else min(timeout, remaining)
        else:
            wait = timeout
        finished = entry.done.wait(wait)
        now = clock()
        if not finished:
            if self.deadline_at is not None and now >= self.deadline_at:
                raise self._deadline_exceeded(
                    f"no result within the request deadline "
                    f"({(self.deadline_at - self.submitted_at) * 1000:.0f}ms)"
                )
            raise TimeoutError(f"no result within timeout={timeout}s")
        if entry.error is not None:
            if isinstance(entry.error, DeadlineExceededError):
                self._count_deadline_once()
            raise entry.error
        if self.deadline_at is not None and now > self.deadline_at:
            raise self._deadline_exceeded(
                "execution completed after the request deadline"
            )
        stats = ComparisonStats()
        stats.merge(entry.stats_delta)
        latency = now - self.submitted_at
        if METRICS.enabled:
            METRICS.histogram("serve.latency_ms").observe(latency * 1000.0)
        return OrderResponse(
            table=entry.table,
            label=entry.label,
            stats=stats,
            coalesced=self.coalesced,
            tenant=self.tenant,
            latency_s=latency,
        )


class OrderService:
    """Concurrent order-by service: submit sorts, share work, shed load.

    Parameters
    ----------
    config:
        The :class:`~repro.exec.ExecutionConfig` governing both the
        service shape (``service_threads`` / ``service_queue_depth`` /
        ``service_deadline_ms``) and every execution it runs (engine,
        cache, cache budget, ...).  ``None`` uses the
        environment-aware default.
    clock:
        Injectable monotonic clock for deadline tests.

    Usage::

        from repro import OrderService

        with OrderService(config) as svc:
            resp = svc.order_by(table, "A", "C", "B")
            # or: ticket = svc.submit(table, spec); resp = ticket.result()
    """

    def __init__(
        self,
        config: ExecutionConfig | None = None,
        clock=time.monotonic,
    ) -> None:
        global _CURRENT
        self._config = config if config is not None else ExecutionConfig.from_env()
        self._clock = clock
        self._queue = AdmissionQueue(self._config.service_queue_depth)
        self._registry = InflightRegistry()
        #: Byte ledger for queued/in-flight source buffers
        #: (category ``serve.inflight``); attribution, not admission —
        #: the queue depth is the admission bound.
        self.accountant = MemoryAccountant(None)
        self._closed = False
        self._stats_lock = threading.Lock()
        self._counters = {
            "requests": 0,
            "executions": 0,
            "coalesced": 0,
            "rejected": 0,
            "deadline_exceeded": 0,
            "errors": 0,
            "planned": 0,
            "planned_batches": 0,
        }
        self._normalizer = SpecNormalizer()
        self._executing = 0
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(self._config.service_threads)
        ]
        for t in self._threads:
            t.start()
        _CURRENT = self
        if LOG.enabled:
            LOG.event(
                "serve.started",
                threads=self._config.service_threads,
                queue_depth=self._config.service_queue_depth,
            )

    # ------------------------------------------------------------ plumbing

    @property
    def config(self) -> ExecutionConfig:
        return self._config

    @property
    def closed(self) -> bool:
        return self._closed

    def _count(self, name: str, n: int = 1) -> None:
        with self._stats_lock:
            self._counters[name] += n

    def counters(self) -> dict[str, int]:
        """Snapshot of the service's own event counters."""
        with self._stats_lock:
            out = dict(self._counters)
        out["queued"] = len(self._queue)
        out["inflight"] = len(self._registry)
        out["inflight_bytes"] = self.accountant.used
        return out

    def _publish_levels(self) -> None:
        if METRICS.enabled:
            METRICS.gauge("serve.queue_depth").set(len(self._queue))
            METRICS.gauge("serve.inflight").set(len(self._registry))
            METRICS.gauge("serve.inflight_bytes").set(self.accountant.used)

    # ----------------------------------------------------------- admission

    def submit(
        self,
        source: Table,
        order: SortSpec | str | tuple,
        *more_columns: str,
        tenant: str = "default",
        deadline_ms: object = _DEFAULT_DEADLINE,
    ) -> Ticket:
        """Admit one order request; returns a :class:`Ticket`.

        ``order`` is a :class:`~repro.model.SortSpec` or column names.
        Duplicate in-flight requests (same row multiset, same
        arrangement, same target order) coalesce onto one execution.
        Raises :class:`ServiceOverloadError` when the admission queue
        is full and :class:`ServiceClosedError` after :meth:`close`.
        """
        if self._closed:
            raise ServiceClosedError("OrderService is closed")
        if not isinstance(source, Table):
            raise TypeError(f"cannot serve a {type(source).__name__}")
        if isinstance(order, SortSpec):
            spec = order
        elif more_columns:
            spec = SortSpec.of(order, *more_columns)
        elif isinstance(order, (tuple, list)):
            spec = SortSpec(order)
        else:
            spec = SortSpec.of(order)
        if deadline_ms is _DEFAULT_DEADLINE:
            deadline_ms = self._config.service_deadline_ms
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {deadline_ms}")

        self._count("requests")
        if METRICS.enabled:
            METRICS.counter("serve.requests").inc()
        now = self._clock()
        deadline_at = (
            None if deadline_ms is None else now + deadline_ms / 1000.0
        )
        fp = fingerprint_table(source)
        normalized = self._normalizer.normalize(fp, source, spec)
        if normalized is not spec:
            if METRICS.enabled:
                METRICS.counter("serve.normalized_orders").inc()
            if LOG.enabled:
                LOG.event(
                    "serve.normalize", tenant=tenant,
                    order=",".join(str(c) for c in spec.columns),
                    normalized=",".join(str(c) for c in normalized.columns),
                )
            spec = normalized
        key = (fp.source_key, spec)

        def _create() -> Inflight:
            entry = Inflight(key, source, spec, tenant, now, deadline_at)
            if not self._queue.put(entry, tenant):
                if self._closed or self._queue.closed:
                    raise ServiceClosedError("OrderService is closed")
                self._count("rejected")
                if METRICS.enabled:
                    METRICS.counter("serve.rejected_overload").inc()
                if LOG.enabled:
                    LOG.event(
                        "serve.reject", tenant=tenant,
                        queue_depth=self._queue.depth,
                    )
                raise ServiceOverloadError(
                    f"admission queue full "
                    f"({self._queue.depth} pending executions)"
                )
            entry.nbytes = _table_nbytes(source)
            self.accountant.charge("serve.inflight", entry.nbytes)
            return entry

        entry, created = self._registry.attach_or_create(
            key, deadline_at, _create
        )
        if not created:
            self._count("coalesced")
            if METRICS.enabled:
                METRICS.counter("serve.coalesced_requests").inc()
            if LOG.enabled:
                LOG.event(
                    "serve.coalesce", tenant=tenant,
                    order=",".join(str(c) for c in spec.columns),
                    waiters=entry.waiters,
                )
        self._publish_levels()
        return Ticket(self, entry, tenant, now, deadline_at, not created)

    def order_by(
        self,
        source: Table,
        order: SortSpec | str | tuple,
        *more_columns: str,
        tenant: str = "default",
        deadline_ms: object = _DEFAULT_DEADLINE,
        timeout: float | None = None,
    ) -> OrderResponse:
        """Blocking convenience: :meth:`submit` + :meth:`Ticket.result`."""
        return self.submit(
            source, order, *more_columns,
            tenant=tenant, deadline_ms=deadline_ms,
        ).result(timeout=timeout)

    # ----------------------------------------------------------- execution

    def _worker(self) -> None:
        window = self._config.plan_window_ms
        while True:
            entry = self._queue.get(timeout=0.1)
            if entry is None:
                if self._closed and len(self._queue) == 0:
                    return
                continue
            if window is None:
                self._execute(entry)
            else:
                self._execute_batch(*self._drain_batch(entry, window / 1000.0))

    def _drain_batch(self, first: Inflight, window_s: float) -> tuple:
        """Collect a micro-batch: ``first`` plus what arrives behind it.

        ``window_s`` is the longest ``first`` is held, not how long it
        is held: the window closes as soon as one wait of
        ``window_s / _IDLE_DIVISOR`` brings no arrival (a burst has
        ended, or there never was one).  Returns the entries and the
        milliseconds ``first`` was held.
        """
        entries = [first]
        start = self._clock()
        deadline = start + window_s
        idle = window_s / _IDLE_DIVISOR
        while True:
            remaining = deadline - self._clock()
            if remaining <= 0:
                break
            entry = self._queue.get(timeout=min(idle, remaining))
            if entry is None:
                break
            entries.append(entry)
        held_ms = (self._clock() - start) * 1000.0
        if METRICS.enabled:
            METRICS.histogram("serve.window_held_ms").observe(held_ms)
        return entries, held_ms

    def _execute_batch(self, entries: list, held_ms: float) -> None:
        """Execute one drained micro-batch: same-source groups of two
        or more go through the derivation planner as one batch,
        everything else takes the ordinary solo path."""
        groups: dict[tuple, list] = {}
        for entry in entries:
            groups.setdefault(entry.key[0], []).append(entry)
        for group in groups.values():
            if len(group) == 1:
                self._execute(group[0])
            else:
                self._plan_group(group, held_ms)

    def _plan_group(self, group: list, held_ms: float) -> None:
        from ..plan import derive_batch

        now = self._clock()
        live = []
        for entry in group:
            if entry.expired(now):
                entry.error = DeadlineExceededError(
                    f"request expired in queue after "
                    f"{(now - entry.submitted_at) * 1000:.0f}ms"
                )
                if LOG.enabled:
                    LOG.event(
                        "serve.expired", tenant=entry.tenant,
                        waiters=entry.waiters,
                        queued_ms=round(
                            (now - entry.submitted_at) * 1000, 1
                        ),
                    )
                self._finish(entry)
            else:
                live.append(entry)
        if len(live) < 2:
            for entry in live:
                self._execute(entry)
            return
        with self._stats_lock:
            self._executing += len(live)
        #: Entries not yet answered; a group's specs are distinct
        #: (identical ones coalesced at admission).
        pending = {entry.spec: entry for entry in live}

        def _publish(node) -> None:
            # One order of the batch is derived: answer its waiters now,
            # not when the last order is.  Counted before the wake-up,
            # so a client holding a response reads counters that
            # include it.
            first = len(pending) == len(live)
            entry = pending.pop(node.spec)
            entry.table = node.table
            entry.label = node.label
            entry.stats_delta = node.stats_delta
            with self._stats_lock:
                self._executing -= 1
                self._counters["executions"] += 1
                self._counters["planned"] += 1
                if first:
                    self._counters["planned_batches"] += 1
            if METRICS.enabled:
                METRICS.counter("serve.executions").inc()
                METRICS.counter("serve.planned_requests").inc()
                if first:
                    METRICS.counter("serve.planned_batches").inc()
                METRICS.histogram("serve.fanout").observe(entry.waiters)
            self._finish(entry)

        try:
            with LOG.query_scope():
                result = derive_batch(
                    live[0].source, [e.spec for e in live],
                    config=self._config, on_node=_publish,
                )
        except BaseException as exc:  # noqa: BLE001 - solo path recovers
            # Whatever was published stays answered; only the rest of
            # the batch re-runs, each entry on the ordinary solo path.
            with self._stats_lock:
                self._executing -= len(pending)
            if LOG.enabled:
                LOG.event(
                    "serve.batch_fallback", orders=len(pending),
                    published=len(live) - len(pending), error=repr(exc),
                )
            for entry in pending.values():
                self._execute(entry)
            return
        if LOG.enabled:
            LOG.event(
                "serve.batch",
                orders=len(live),
                est_speedup=round(min(result.plan.est_speedup, 1e6), 3),
                fallbacks=result.fallbacks,
                held_ms=round(held_ms, 3),
            )

    def _execute(self, entry: Inflight) -> None:
        now = self._clock()
        if entry.expired(now):
            # Shed the work; the deadline_exceeded counters are bumped
            # per ticket (once each) when waiters observe the failure.
            entry.error = DeadlineExceededError(
                f"request expired in queue after "
                f"{(now - entry.submitted_at) * 1000:.0f}ms"
            )
            if LOG.enabled:
                LOG.event(
                    "serve.expired", tenant=entry.tenant,
                    waiters=entry.waiters,
                    queued_ms=round((now - entry.submitted_at) * 1000, 1),
                )
            self._finish(entry)
            return
        with self._stats_lock:
            self._executing += 1
        try:
            with LOG.query_scope():
                op = Sort(TableScan(entry.source), entry.spec,
                          config=self._config)
                table = op.to_table()
            entry.table = table
            entry.label = op.order_strategy
            entry.stats_delta = op.stats
            self._count("executions")
            if METRICS.enabled:
                METRICS.counter("serve.executions").inc()
                METRICS.histogram("serve.fanout").observe(entry.waiters)
            if LOG.enabled:
                LOG.event(
                    "serve.execute", tenant=entry.tenant,
                    order=",".join(str(c) for c in entry.spec.columns),
                    strategy=op.order_strategy, rows=len(table.rows),
                    waiters=entry.waiters,
                    queued_ms=round((now - entry.submitted_at) * 1000, 1),
                )
        except BaseException as exc:  # noqa: BLE001 - delivered to waiters
            entry.error = exc
            self._count("errors")
            if METRICS.enabled:
                METRICS.counter("serve.errors").inc()
            if LOG.enabled:
                LOG.event(
                    "serve.error", tenant=entry.tenant, error=repr(exc)
                )
        finally:
            with self._stats_lock:
                self._executing -= 1
            self._finish(entry)

    def _finish(self, entry: Inflight) -> None:
        """Publish the result: retire the key first, then wake waiters.

        Removal-before-set means a duplicate arriving after completion
        starts a fresh entry instead of attaching to a finished one —
        the order cache, not the registry, serves *sequential* repeats.
        """
        self._registry.remove(entry.key)
        if entry.nbytes:
            self.accountant.release("serve.inflight", entry.nbytes)
        entry.done.set()
        self._publish_levels()

    # ------------------------------------------------------------ shutdown

    def close(self, drain: bool = True) -> None:
        """Stop admitting work; by default finish what was admitted.

        ``drain=False`` fails still-queued entries with
        :class:`ServiceClosedError` instead of executing them
        (executions already running always complete).
        """
        global _CURRENT
        if self._closed:
            return
        self._closed = True
        if not drain:
            while True:
                entry = self._queue.get(timeout=0)
                if entry is None:
                    break
                entry.error = ServiceClosedError(
                    "OrderService closed before execution"
                )
                self._finish(entry)
        self._queue.close()
        for t in self._threads:
            t.join(timeout=30)
        if _CURRENT is self:
            _CURRENT = None
        if LOG.enabled:
            LOG.event("serve.closed", **self.counters())

    def __enter__(self) -> "OrderService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = self.counters()
        return (
            f"OrderService(threads={self._config.service_threads}, "
            f"queue={c['queued']}/{self._config.service_queue_depth}, "
            f"requests={c['requests']}, executions={c['executions']}, "
            f"coalesced={c['coalesced']})"
        )

    # ---------------------------------------------------------- inspection

    def health(self) -> dict:
        """The service's /healthz check: status plus the numbers judged."""
        c = self.counters()
        degraded = c["rejected"] > 0 or c["deadline_exceeded"] > 0
        return {
            "status": "degraded" if degraded else "ok",
            "closed": self._closed,
            "threads": self._config.service_threads,
            "queue_depth": self._config.service_queue_depth,
            **c,
        }
