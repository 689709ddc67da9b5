"""Scraping the telemetry plane mid-query must never fail.

The acceptance bar for the live endpoint: eight client threads hammer
``/metrics``, ``/healthz`` and ``/varz`` while modifies run back to
back and an :class:`~repro.serve.OrderService` answers a duplicate-heavy
load through an order cache whose budget makes every install spill —
and every single response is a 200 with a parseable body, including the
ones served mid-run while counters are being bumped from the modify,
the spill path and the scheduler threads.
"""

from __future__ import annotations

import json
import threading
import urllib.request

from repro.cache import reset_cache
from repro.core.modify import modify_sort_order
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec
from repro.obs import METRICS
from repro.obs.exporters import validate_prometheus_text
from repro.obs.server import TelemetryServer
from repro.serve import OrderService, default_orders, run_load
from repro.workloads.generators import random_sorted_table

SCHEMA = Schema.of("A", "B", "C", "D")
DOMAINS = [12, 24, 48, 8]
SPEC_IN = SortSpec.of("A", "B", "C")
SPEC_OUT = SortSpec.of("A", "C", "B")


def _check_body(endpoint, body):
    """Problems with one response body (empty when it parses)."""
    if endpoint == "/metrics":
        errors = validate_prometheus_text(body)
        return [f"/metrics invalid: {errors[:3]}"] if errors else []
    obj = json.loads(body)
    if endpoint == "/healthz":
        if obj["status"] not in ("ok", "degraded"):
            return [f"/healthz: {obj['status']!r}"]
        return []
    missing = {"config", "metrics", "health", "spans"} - set(obj)
    return [f"/varz lacks {sorted(missing)}"] if missing else []


def _scrape_loop(url, stop, failures, scrapes):
    while not stop.is_set():
        for endpoint in ("/metrics", "/healthz", "/varz"):
            try:
                with urllib.request.urlopen(url + endpoint, timeout=5) as r:
                    body = r.read().decode("utf-8")
                    if r.status != 200:
                        failures.append(f"{endpoint}: status {r.status}")
                        continue
                    failures.extend(_check_body(endpoint, body))
            except Exception as exc:  # noqa: BLE001 - any failure fails the test
                failures.append(f"{endpoint}: {exc!r}")
            scrapes.append(endpoint)


def test_eight_scrapers_during_governed_modify_and_service_load(tmp_path):
    METRICS.enable(clear=True)
    table = random_sorted_table(
        SCHEMA, SPEC_IN, 1200, domains=DOMAINS, seed=0
    )
    baseline = modify_sort_order(table, SPEC_OUT)
    reset_cache()
    serving = ExecutionConfig(
        cache="on", cache_budget="1KiB", spill_dir=str(tmp_path),
        service_threads=2,
    )

    stop = threading.Event()
    failures: list[str] = []
    scrapes: list[str] = []
    with TelemetryServer(port=0, config=serving) as server:
        threads = [
            threading.Thread(
                target=_scrape_loop,
                args=(server.url, stop, failures, scrapes),
                daemon=True,
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        try:
            results = [modify_sort_order(table, SPEC_OUT) for _ in range(3)]
            with OrderService(serving) as svc:
                report = run_load(
                    svc, table, default_orders(table, 4),
                    threads=8, requests_per_thread=2,
                )
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
            reset_cache()

    assert not failures, failures[:5]
    assert len(scrapes) >= 24  # all eight threads scraped every endpoint
    for result in results:
        assert result.rows == baseline.rows
        assert result.ovcs == baseline.ovcs
    assert report["completed"] == report["requests"] == 16
    assert report["errors"] == 0
    counters = METRICS.as_dict()["counters"]
    assert counters.get("exec.spill.runs", 0) >= 1  # the budget really bit
    assert counters.get("serve.requests", 0) >= 16
    assert counters.get("server.requests", 0) >= len(scrapes)
