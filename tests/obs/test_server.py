"""Telemetry HTTP server: endpoints, snapshots, lifecycle."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.cache import get_cache, reset_cache
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec
from repro.obs import METRICS, SLOWLOG, TRACER
from repro.obs.exporters import validate_prometheus_text
from repro.obs.server import (
    TelemetryServer,
    health_snapshot,
    start_telemetry_server,
    stop_telemetry_server,
    varz_snapshot,
)
from repro.query import Query
from repro.workloads.generators import random_sorted_table


@pytest.fixture
def server():
    srv = TelemetryServer(port=0, config=ExecutionConfig())
    srv.start()
    yield srv
    srv.stop()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), resp.read()


def test_metrics_endpoint_serves_prometheus_text(server):
    METRICS.enable(clear=True)
    METRICS.counter("cache.hits").inc(3)
    status, ctype, body = _get(server.url + "/metrics")
    assert status == 200
    assert ctype.startswith("text/plain")
    assert "version=0.0.4" in ctype
    text = body.decode("utf-8")
    assert "cache_hits" in text
    assert validate_prometheus_text(text) == []


def test_metrics_endpoint_with_registry_disabled(server):
    status, _, body = _get(server.url + "/metrics")
    assert status == 200
    assert b"registry" in body  # explanatory comment, not an error


def test_healthz_reports_ok(server):
    reset_cache()
    status, ctype, body = _get(server.url + "/healthz")
    assert status == 200
    assert "json" in ctype
    health = json.loads(body)
    assert health["status"] == "ok"
    assert health["degraded_checks"] == []
    assert "pool" not in health["checks"]
    assert health["checks"]["memory"] == {"status": "ok", "governed": False}
    assert "cache" in health["checks"]


def test_healthz_memory_check_is_the_order_caches_ledger(server, tmp_path):
    reset_cache()
    cfg = ExecutionConfig(
        cache="on", cache_budget="1KiB", spill_dir=str(tmp_path)
    )
    table = random_sorted_table(
        Schema.of("A", "B", "C"), SortSpec.of("A", "B", "C"), 500,
        domains=[8, 8, 64], seed=0,
    )
    try:
        # Two installs of ~2 KB each: the second pushes the first to
        # disk and is itself more than the budget holds.
        Query(table).order_by("A", "C", "B", config=cfg).to_table()
        Query(table).order_by("B", "A", config=cfg).to_table()
        ledger = get_cache().accountant
        health = json.loads(_get(server.url + "/healthz")[2])
        assert health["checks"]["memory"] == {
            "status": "pressure",
            "used_bytes": ledger.used,
            "peak_bytes": ledger.peak,
            "budget_bytes": 1024,
        }
        assert ledger.peak >= ledger.used > 1024
        assert health["status"] == "degraded"
        assert health["degraded_checks"] == ["memory"]
    finally:
        reset_cache()


def test_varz_exposes_config_metrics_and_health(server):
    METRICS.enable(clear=True)
    METRICS.counter("exec.spill.runs").inc()
    status, _, body = _get(server.url + "/varz")
    assert status == 200
    varz = json.loads(body)
    assert varz["pid"] > 0
    assert "engine" in varz["config"]
    assert varz["metrics"]["counters"]["exec.spill.runs"] == 1
    assert varz["health"]["status"] in ("ok", "degraded")


def test_index_lists_endpoints(server):
    status, _, body = _get(server.url + "/")
    assert status == 200
    for endpoint in (b"/metrics", b"/healthz", b"/varz"):
        assert endpoint in body


def test_unknown_path_is_404(server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(server.url + "/nope")
    assert err.value.code == 404


def test_request_counter_bumps(server):
    METRICS.enable(clear=True)
    _get(server.url + "/healthz")
    _get(server.url + "/healthz")
    assert METRICS.as_dict()["counters"]["server.requests"] >= 2


def test_health_snapshot_degrades_on_shed_requests():
    METRICS.enable(clear=True)
    METRICS.counter("serve.rejected_overload").inc()
    health = health_snapshot()
    assert health["status"] == "degraded"
    assert health["degraded_checks"] == ["service"]
    assert health["checks"]["service"]["rejected"] >= 1


def test_varz_snapshot_includes_slowlog_tail():
    SLOWLOG.enable(0)
    SLOWLOG.record(SLOWLOG.mark(), "modify", strategy="combined")
    varz = varz_snapshot(ExecutionConfig())
    assert varz["slowlog"]["enabled"] is True
    assert varz["slowlog"]["entries"][-1]["order_strategy"] == "combined"


def test_varz_snapshot_reports_open_spans():
    TRACER.enable(clear=True)
    with TRACER.span("outer"):
        varz = varz_snapshot(None)
        assert varz["spans"]["enabled"] is True
        assert [s["name"] for s in varz["spans"]["open"]] == ["outer"]
    TRACER.disable()


def test_start_telemetry_server_is_idempotent():
    first = start_telemetry_server(port=0)
    try:
        second = start_telemetry_server(port=0)
        assert first is second
        status, _, _ = _get(first.url + "/healthz")
        assert status == 200
    finally:
        stop_telemetry_server()
    # Once stopped, a new singleton can be started on a fresh port.
    third = start_telemetry_server(port=0)
    try:
        assert third is not first
    finally:
        stop_telemetry_server()


def test_context_manager_lifecycle():
    with TelemetryServer(port=0) as srv:
        assert srv.running
        status, _, _ = _get(srv.url + "/healthz")
        assert status == 200
    assert not srv.running
