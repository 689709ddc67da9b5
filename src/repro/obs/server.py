"""Live telemetry plane: a dependency-free ``/metrics`` + ``/healthz``
HTTP endpoint.

Everything the obs package collects — counters, gauges, histograms,
spans — existed only as post-hoc file dumps before this module.  The
telemetry server makes it *live*: a ``ThreadingHTTPServer`` on a
background daemon thread that any entry point can start
(:func:`start_telemetry_server`), serving three read-only endpoints:

* ``GET /metrics`` — Prometheus text exposition of the process
  registry (with ``# HELP``/``# TYPE`` lines), scrapeable mid-query:
  the registry snapshot is taken atomically enough that concurrent
  metric bumps never break a scrape.
* ``GET /healthz`` — liveness plus derived health: memory-budget
  pressure (from the process-wide order cache's
  :class:`~repro.exec.memory.MemoryAccountant`), spill activity, and
  order-service overload.  Always ``200`` while the process serves
  (degradation is an *observation*, not a death sentence); the JSON
  body carries
  ``status: "ok" | "degraded"`` with per-check detail.
* ``GET /varz`` — the kitchen sink as JSON: the full metrics snapshot,
  tracer state (span counts plus the open span chain), the governing
  :class:`~repro.exec.ExecutionConfig`, recent slow-query entries, and
  process vitals.  For humans and debug tooling, not dashboards.

The server never takes a query down and never 500s: every request is
answered from snapshots inside a catch-all (failures degrade to a
``503`` with the error in the body), and ``ThreadingHTTPServer`` keeps
one slow scraper from blocking the next.  Scrape cost is proportional
to the metric count, never to data size.

CLI: ``python -m repro serve --telemetry-port P`` runs a standalone
telemetry process; ``--telemetry-port P`` on any experiment serves
while the experiment runs.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from .logging import LOG
from .metrics import METRICS
from .spans import TRACER

#: Process start (import) time, for uptime reporting.
_EPOCH = time.time()


def health_snapshot(config: Any = None) -> dict:
    """Derive process health from the live registry and the order
    cache's byte ledger.

    ``status`` is ``"ok"`` or ``"degraded"``; each check reports its
    own status plus the numbers it judged.  Degraded means "serving,
    but under budget pressure or shedding requests" — the
    process is alive either way (that is what the HTTP 200 says).
    """
    from ..cache import get_cache

    snap = METRICS.as_dict()
    counters = snap.get("counters", {})
    checks: dict[str, dict] = {}

    cache = get_cache()
    if cache is not None:
        accountant = cache.accountant
        checks["memory"] = {
            "status": "pressure" if accountant.over_budget() else "ok",
            "used_bytes": accountant.used,
            "peak_bytes": accountant.peak,
            "budget_bytes": accountant.budget,
        }
    else:
        checks["memory"] = {"status": "ok", "governed": False}

    checks["spill"] = {
        "status": "ok",
        "runs": counters.get("exec.spill.runs", 0),
        "bytes_written": counters.get("exec.spill.bytes_written", 0),
    }

    checks["cache"] = {
        "status": "ok",
        "hits": counters.get("cache.hits", 0),
        "misses": counters.get("cache.misses", 0),
        "entries": snap.get("gauges", {})
        .get("cache.entries", {})
        .get("value", 0),
    }

    from ..serve.service import current_service

    service = current_service()
    if service is not None:
        checks["service"] = service.health()
    else:
        rejected = counters.get("serve.rejected_overload", 0)
        missed = counters.get("serve.deadline_exceeded", 0)
        checks["service"] = {
            "status": "degraded" if rejected or missed else "ok",
            "running": False,
            "requests": counters.get("serve.requests", 0),
            "executions": counters.get("serve.executions", 0),
            "coalesced": counters.get("serve.coalesced_requests", 0),
            "rejected": rejected,
            "deadline_exceeded": missed,
        }

    bad = [
        name for name, check in checks.items() if check["status"] != "ok"
    ]
    return {
        "status": "degraded" if bad else "ok",
        "degraded_checks": bad,
        "pid": os.getpid(),
        "uptime_s": round(time.time() - _EPOCH, 3),
        "metrics_enabled": METRICS.enabled,
        "tracing_enabled": TRACER.enabled,
        "checks": checks,
    }


def varz_snapshot(config: Any = None) -> dict:
    """Everything, as JSON: metrics + spans + config + process vitals."""
    from .slowlog import SLOWLOG

    open_spans: list[dict] = []
    if TRACER.enabled:
        current = TRACER._current
        while current is not None:
            open_spans.append({"id": current.sid, "name": current.name})
            current = current.parent
        open_spans.reverse()
    config_dict: dict | None = None
    if config is not None:
        import dataclasses

        config_dict = dataclasses.asdict(config)
    return {
        "pid": os.getpid(),
        "python": sys.version.split()[0],
        "uptime_s": round(time.time() - _EPOCH, 3),
        "argv": sys.argv,
        "config": config_dict,
        "metrics": METRICS.as_dict(),
        "spans": {
            "enabled": TRACER.enabled,
            "recorded": len(TRACER.records),
            "open": open_spans,
        },
        "slowlog": {
            "enabled": SLOWLOG.enabled,
            "threshold_ms": SLOWLOG.threshold_ms,
            "entries": list(SLOWLOG.entries)[-20:],
        },
        "health": health_snapshot(config),
    }


class _TelemetryHandler(BaseHTTPRequestHandler):
    """Routes the three endpoints; never lets an error escape as a 500."""

    server_version = "repro-telemetry/1"
    #: Set by :class:`TelemetryServer` when it builds the handler class.
    telemetry: "TelemetryServer"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            if path == "/metrics":
                from .exporters import prometheus_text

                body = prometheus_text(METRICS)
                if not body:
                    body = (
                        "# metrics registry empty"
                        + ("" if METRICS.enabled else " (disabled)")
                        + "\n"
                    )
                self._respond(
                    200, body, "text/plain; version=0.0.4; charset=utf-8"
                )
            elif path in ("/healthz", "/health"):
                self._respond_json(200, health_snapshot(self.telemetry.config))
            elif path == "/varz":
                self._respond_json(200, varz_snapshot(self.telemetry.config))
            elif path == "/":
                self._respond(
                    200,
                    "repro telemetry: /metrics /healthz /varz\n",
                    "text/plain; charset=utf-8",
                )
            else:
                self._respond_json(404, {"error": f"no route {path!r}"})
        except Exception as exc:  # noqa: BLE001 - the contract is "never 500"
            if METRICS.enabled:
                METRICS.counter("server.errors").inc()
            try:
                self._respond_json(503, {"error": repr(exc)})
            except OSError:  # pragma: no cover - client went away
                pass

    def _respond(self, code: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        # Counted before the payload goes out, so a client that has its
        # answer never reads a count that does not include its request.
        if METRICS.enabled:
            METRICS.counter("server.requests").inc()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _respond_json(self, code: int, obj: dict) -> None:
        self._respond(
            code, json.dumps(obj, default=str) + "\n", "application/json"
        )

    def log_message(self, fmt: str, *args: Any) -> None:
        """Route access logs to the structured logger (never stderr spam)."""
        if LOG.enabled:
            LOG.event("server.request", detail=fmt % args)


class TelemetryServer:
    """One background telemetry endpoint for this process."""

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        config: Any = None,
    ) -> None:
        self.config = config
        handler = type(
            "_BoundTelemetryHandler", (_TelemetryHandler,), {"telemetry": self}
        )
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "TelemetryServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-telemetry",
                kwargs={"poll_interval": 0.2},
                daemon=True,
            )
            self._thread.start()
            LOG.event("server.started", url=self.url)
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


#: The process singleton (:func:`start_telemetry_server` manages it).
_SERVER: TelemetryServer | None = None
_SERVER_LOCK = threading.Lock()


def start_telemetry_server(
    port: int = 0,
    host: str = "127.0.0.1",
    config: Any = None,
) -> TelemetryServer:
    """Start (or return) the process's telemetry server.

    Idempotent: a second call returns the running server (ignoring a
    different requested port — one process, one telemetry plane).
    ``port=0`` picks a free port; read it from ``server.port``.
    """
    global _SERVER
    with _SERVER_LOCK:
        if _SERVER is not None and _SERVER.running:
            if config is not None:
                _SERVER.config = config
            return _SERVER
        _SERVER = TelemetryServer(port=port, host=host, config=config)
        return _SERVER.start()


def stop_telemetry_server() -> None:
    """Stop the process's telemetry server, if one is running."""
    global _SERVER
    with _SERVER_LOCK:
        if _SERVER is not None:
            _SERVER.stop()
            _SERVER = None
