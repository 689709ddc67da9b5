"""OrderService: the concurrent order-by serving layer.

One in-process service owns the workload-level concerns that a solo
``Query.order_by`` call cannot see:

* **Hits at submit** — with ``config.cache`` on, a request whose exact
  order is cached is answered inside :meth:`OrderService.submit`, on
  the caller's thread (:func:`repro.cache.dispatch._exact_hit`, the
  same branch ``Sort`` asks first): no queue slot, no registry entry,
  no scheduler thread.  Everything below applies to *executions* — a
  hit needs no admission, is never rejected, never waits on a tenant
  and never misses a deadline.
* **Admission control** — a bounded queue
  (:class:`~repro.serve.queue.AdmissionQueue`, depth =
  ``config.service_queue_depth``); a full queue raises
  :class:`~repro.serve.ServiceOverloadError` at submit instead of
  buffering unboundedly.
* **Duplicate coalescing** — an in-flight registry keyed by the order
  cache's content fingerprint plus the target order: N concurrent
  identical requests cost *one* execution, whose result fans out to
  every waiter — so each response's rows and codes are bit-identical
  to a solo serial uncached run.
* **Deadlines** — per-request deadlines (``submit(deadline_ms=)``;
  none by default); requests that expire in the queue are skipped
  without execution, and waiters that outlive their deadline fail with
  :class:`~repro.serve.DeadlineExceededError`.
* **Tenant fairness** — the queue round-robins across tenants, so one
  tenant's backlog cannot starve another's single request.
* **Order normalization** — submitted orders are truncated to their
  shortest row-unique prefix (:mod:`repro.serve.normalize`), so
  trivially equivalent targets (trailing keys implied by a unique
  prefix) coalesce instead of executing separately.
* **Micro-batching** — with ``config.plan_window_ms`` set, a scheduler
  thread takes its first request together with whatever is already
  queued behind it — it holds nothing and waits for no arrival; the
  window only bounds how long that drain may take — and then runs what
  it drained one request after another, each exactly as a solo request
  (a same-source group of two or more counts as one
  ``planned_batches``).  Each request is answered the moment its own
  order is derived, and a failing order fails only its own waiters.

Executions run on ``config.service_threads`` scheduler threads, each
through the ordinary :class:`~repro.engine.sort_op.Sort` operator with
the service's :class:`~repro.exec.ExecutionConfig` — which means the
order cache (``config.cache``) and all telemetry engage exactly as they
would for a direct call.  A queued request holds a reference to the
caller's source table, not a copy.  With the cache on, a miss is
answered before its install: the scheduler thread wakes the waiters,
yields, and only then runs the install ``Sort`` left to it and retires
the entry.  A request for that order arriving in between waits for
the install and is answered by the cache, as a ``cache-hit(...)``.

What a request costs besides its execution: the coalescing key needs
the source's content fingerprint — O(n) hashing, once in the life of
the caller's :class:`~repro.model.Table` (a table is a value, so the
fingerprint kept on it never goes stale).  ``Sort`` and the cache are
handed the same ``Table``, so they find the memo too.  The normalized
order is memoized per (rows, their order, target).  With the cache
warm, a repeat request is submit → cache → response on the caller's
thread, with no thread hand-off: a few dictionary reads, and the
response is the entry's own ``Table`` — nothing is copied or rebuilt.

Observability: ``serve.*`` counters/gauges/histograms in the metrics
registry, decision-grade ``serve.*`` structured-log events, and a
``service`` health check on ``/healthz``.
"""

from __future__ import annotations

import math
import threading
import time

from ..cache import resolve_cache
from ..cache.dispatch import _exact_hit
from ..cache.fingerprint import fingerprint_table
from ..cache.store import CachedOrder
from ..engine.scans import TableScan
from ..engine.sort_op import Sort
from ..exec.config import ExecutionConfig
from ..model import SortSpec, Table
from ..obs import LOG, METRICS
from .errors import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadError,
)
from .normalize import SpecNormalizer
from .queue import AdmissionQueue
from .registry import COALESCED, INSTALLING, InflightRegistry
from .request import Inflight, OrderResponse

#: The most recently created, not-yet-closed service (for /healthz).
_CURRENT: "OrderService | None" = None


def current_service() -> "OrderService | None":
    """The live service this process most recently created, if any."""
    return _CURRENT


class Ticket:
    """A submitted request's handle; :meth:`result` blocks for the answer.

    A request answered at submit (an exact cache hit) has no in-flight
    entry, only its ``response``: it is ``done`` from the start.
    """

    __slots__ = (
        "_service", "_entry", "_response", "tenant", "submitted_at",
        "deadline_at", "coalesced", "_deadline_counted",
    )

    def __init__(
        self,
        service: "OrderService",
        entry: Inflight | None,
        tenant: str,
        submitted_at: float,
        deadline_at: float | None,
        coalesced: bool,
        response: OrderResponse | None = None,
    ) -> None:
        self._service = service
        self._entry = entry
        self._response = response
        self.tenant = tenant
        self.submitted_at = submitted_at
        self.deadline_at = deadline_at
        self.coalesced = coalesced
        self._deadline_counted = False

    @property
    def done(self) -> bool:
        return self._entry is None or self._entry.done.is_set()

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
        execution's own error.  On success every waiter gets the shared
        execution's table and label; a response carries no comparison
        counts.  A ticket answered at submit returns its response at
        once: it never waited, so no deadline or timeout applies.
        """
        entry = self._entry
        if entry is None:
            return self._response
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
        latency = now - self.submitted_at
        if METRICS.enabled:
            METRICS.histogram("serve.latency_ms").observe(latency * 1000.0)
        return OrderResponse(
            table=entry.table,
            label=entry.label,
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
        ``plan_window_ms``) and every execution it runs (engine,
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
        self._config = (
            config if config is not None else ExecutionConfig.default()
        )
        self._clock = clock
        self._queue = AdmissionQueue(self._config.service_queue_depth)
        self._registry = InflightRegistry()
        self._closed = False
        self._stats_lock = threading.Lock()
        self._counters = {
            "requests": 0,
            "cache_hits": 0,
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
        """Snapshot of the service's own event counters.

        A request is answered at submit (``cache_hits``), run by a
        scheduler thread (``executions``) or rides on another's
        execution (``coalesced``): on a quiesced service without
        rejections, errors or deadline misses, ``requests`` is their
        sum.  ``inflight`` counts registry entries, the answered ones
        still installing among them.
        """
        with self._stats_lock:
            out = dict(self._counters)
        out["queued"] = len(self._queue)
        out["inflight"] = len(self._registry)
        return out

    def _publish_levels(self) -> None:
        if METRICS.enabled:
            METRICS.gauge("serve.queue_depth").set(len(self._queue))
            METRICS.gauge("serve.inflight").set(len(self._registry))

    # ----------------------------------------------------------- admission

    def submit(
        self,
        source: Table,
        order: SortSpec | str | tuple,
        *more_columns: str,
        tenant: str = "default",
        deadline_ms: float | None = None,
    ) -> Ticket:
        """Admit one order request; returns a :class:`Ticket`.

        ``order`` is a :class:`~repro.model.SortSpec` or column names.
        ``deadline_ms`` bounds the request's time to an answer
        (finite and positive; ``None``, the default, means no
        deadline).  With ``config.cache`` on, an exact cache hit is
        answered here, on the caller's thread, and the ticket returned
        is already ``done``.  Measured per hit at 2^12 rows, one thread
        (Intel Xeon, 2 vCPUs, CPython 3.11): ~4.5 µs from an entry's
        memo (its own table is handed out; only the response and the
        ticket are built), ~0.28 ms from a flat entry (two gathers),
        ~0.42 ms from a spilled one (one spill-file read more).
        Everything else is queued for a scheduler thread; duplicate
        in-flight requests (same row sequence, same target order)
        coalesce onto one execution.  A request whose order has been
        executed and answered but not yet installed waits here for
        the install, and is then answered as a hit.
        Raises :class:`ServiceOverloadError` when the admission queue
        is full (never for a hit) and :class:`ServiceClosedError`
        after :meth:`close`.
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
        if deadline_ms is not None and not (
            math.isfinite(deadline_ms) and deadline_ms > 0
        ):
            raise ValueError(
                f"deadline_ms must be finite and positive, got {deadline_ms}"
            )

        now = self._clock()
        deadline_at = (
            None if deadline_ms is None else now + deadline_ms / 1000.0
        )
        fp = fingerprint_table(source)
        normalized, passes = self._normalizer.resolve(fp, source, spec)
        if normalized is not spec:
            if METRICS.enabled:
                METRICS.counter("serve.normalized_orders").inc()
            if LOG.enabled:
                LOG.event(
                    "serve.normalize", tenant=tenant, order=spec.label,
                    normalized=normalized.label,
                )
            spec = normalized
        cache = found = None
        if self._config.cache != "off" and not passes:
            # What Sort would ask the cache first (a source that already
            # satisfies ``spec`` passes through without asking); a miss
            # here counts nothing — the execution's own lookup counts it.
            cache = resolve_cache(self._config)
            found = _exact_hit(cache, fp, spec, count_miss=False)
            if found is not None:
                return self._answer_hit(*found, tenant, now, deadline_at)
        key = (fp.source_key, spec)

        def _create() -> Inflight | None:
            nonlocal found
            if cache is not None:
                # An execution of this order may have been installed and
                # retired since the probe: then the cache answers.
                found = _exact_hit(cache, fp, spec, count_miss=False)
                if found is not None:
                    return None
            self._count("requests")
            if METRICS.enabled:
                METRICS.counter("serve.requests").inc()
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
            return entry

        while True:
            entry, how = self._registry.attach_or_create(
                key, deadline_at, _create
            )
            if how != INSTALLING:
                break
            # Answered, not yet installed: wait for the install, then
            # the cache answers — or, had it failed, execute anew.
            entry.retired.wait()
            # No cache here: this source passes the order through, and
            # the installing entry came from the same rows declared in
            # another order.
            if cache is not None:
                found = _exact_hit(cache, fp, spec, count_miss=False)
                if found is not None:
                    break
        if found is not None:
            return self._answer_hit(*found, tenant, now, deadline_at)
        if how == COALESCED:
            with self._stats_lock:
                self._counters["requests"] += 1
                self._counters["coalesced"] += 1
            if METRICS.enabled:
                METRICS.counter("serve.requests").inc()
                METRICS.counter("serve.coalesced_requests").inc()
            if LOG.enabled:
                LOG.event(
                    "serve.coalesce", tenant=tenant,
                    order=spec.label,
                    waiters=entry.waiters,
                )
        self._publish_levels()
        return Ticket(self, entry, tenant, now, deadline_at, how == COALESCED)

    def _answer_hit(
        self, hit: CachedOrder, label: str, tenant: str,
        submitted_at: float, deadline_at: float | None,
    ) -> Ticket:
        """A completed ticket for an exact hit, handing out the read's
        table as is; the request and the hit count under one lock."""
        counters = self._counters
        with self._stats_lock:
            counters["requests"] += 1
            counters["cache_hits"] += 1
        latency = self._clock() - submitted_at
        if METRICS.enabled:
            METRICS.counter("serve.requests").inc()
            METRICS.counter("serve.cache_hits").inc()
            METRICS.histogram("serve.latency_ms").observe(latency * 1000.0)
        response = OrderResponse(
            table=hit.table, label=label, coalesced=False, tenant=tenant,
            latency_s=latency,
        )
        return Ticket(
            self, None, tenant, submitted_at, deadline_at, False, response
        )

    def order_by(
        self,
        source: Table,
        order: SortSpec | str | tuple,
        *more_columns: str,
        tenant: str = "default",
        deadline_ms: float | None = None,
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
        """Collect a micro-batch: ``first`` plus what is already queued.

        Non-blocking gets until the first empty poll: a burst submitted
        together is queued by the time its first request is dequeued,
        and waiting for later arrivals only delays the ones in hand.
        ``window_s`` bounds the drain itself.  Returns the entries and
        the milliseconds the drain took.
        """
        entries = [first]
        start = self._clock()
        deadline = start + window_s
        while self._clock() < deadline:
            entry = self._queue.get(timeout=0)
            if entry is None:
                break
            entries.append(entry)
        held_ms = (self._clock() - start) * 1000.0
        if METRICS.enabled:
            METRICS.histogram("serve.window_held_ms").observe(held_ms)
        return entries, held_ms

    def _execute_batch(self, entries: list, held_ms: float) -> None:
        """Execute one drained micro-batch, every entry through
        :meth:`_execute`.  A same-source group of two or more live
        (unexpired) entries counts as one planned batch — before any of
        it runs, so a client holding its response reads counters that
        include it."""
        groups: dict[tuple, list] = {}
        for entry in entries:
            groups.setdefault(entry.key[0], []).append(entry)
        now = self._clock()
        for group in groups.values():
            live = sum(1 for entry in group if not entry.expired(now))
            if live >= 2:
                with self._stats_lock:
                    self._counters["planned"] += live
                    self._counters["planned_batches"] += 1
                if METRICS.enabled:
                    METRICS.counter("serve.planned_requests").inc(live)
                    METRICS.counter("serve.planned_batches").inc()
                if LOG.enabled:
                    LOG.event(
                        "serve.batch", orders=live,
                        held_ms=round(held_ms, 3),
                    )
            for entry in group:
                self._execute(entry)

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
        install = None
        with self._stats_lock:
            self._executing += 1
        try:
            with LOG.query_scope():
                op = Sort(TableScan(entry.source), entry.spec,
                          config=self._config)
                table, install = op._answer()
            entry.table = table
            entry.label = op.order_strategy
            self._count("executions")
            if METRICS.enabled:
                METRICS.counter("serve.executions").inc()
                METRICS.histogram("serve.fanout").observe(entry.waiters)
            if LOG.enabled:
                LOG.event(
                    "serve.execute", tenant=entry.tenant,
                    order=entry.spec.label,
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
            self._finish(entry, install)

    def _finish(self, entry: Inflight, install=None) -> None:
        """Publish the result: wake waiters, yield, then install.

        Without an ``install`` the key is retired first, so a duplicate
        arriving after completion starts a fresh entry instead of
        attaching to a finished one.  With one (the cache is on and the
        order was executed), the waiters are answered before the order
        is installed, and the key is retired only after the install: a
        duplicate arriving in between waits for the install and is
        answered by the cache, which serves *sequential* repeats.  An
        install that raises is counted as an error and changes no
        answer.  A woken waiter needs the GIL, which this thread would
        otherwise keep into the install or its next execution until the
        switch interval (5 ms) forces it out; ``sleep(0)`` hands it
        over now.  Three orders of 20 ms CPU each in one batch (Intel
        Xeon, 2 vCPUs, CPython 3.11): a waiter's wake delay p50 5.3 ms
        without the yield, 0.15 ms with it (the yield is a race; about
        one waiter in six loses).
        """
        if install is None:
            self._registry.retire(entry)
        entry.done.set()
        time.sleep(0)
        if install is not None:
            try:
                install()
            except BaseException as exc:  # noqa: BLE001 - the answer stands
                self._count("errors")
                if METRICS.enabled:
                    METRICS.counter("serve.errors").inc()
                if LOG.enabled:
                    LOG.event(
                        "serve.install_error", tenant=entry.tenant,
                        order=entry.spec.label, error=repr(exc),
                    )
            finally:
                self._registry.retire(entry)
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
