"""The live telemetry plane, end to end, in one process.

Starts the `/metrics` + `/healthz` + `/varz` endpoint, turns on every
collector (metrics, structured log, slow-query log), runs an
order modification, and scrapes the server the way a
monitoring stack would — showing the Prometheus series, the health
verdict, and the slow-query capture that one workload produced.
"""

from __future__ import annotations

import json
import urllib.request

from repro import modify_sort_order
from repro import ExecutionConfig
from repro import Schema, SortSpec
from repro.obs import LOG, METRICS, SLOWLOG
from repro.obs.logging import read_log
from repro.obs.server import start_telemetry_server, stop_telemetry_server
from repro import ComparisonStats
from repro.workloads.generators import random_sorted_table

N_ROWS = 20_000


def fetch(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.read()


def main() -> None:
    import tempfile

    log_path = tempfile.mktemp(suffix=".jsonl", prefix="repro-log-")
    METRICS.enable(clear=True)
    LOG.enable(log_path)
    SLOWLOG.enable(0)  # capture everything for the demo
    cfg = ExecutionConfig()
    server = start_telemetry_server(port=0, config=cfg)
    print(f"telemetry serving on {server.url}")

    try:
        schema = Schema.of("A", "B", "C", "D")
        table = random_sorted_table(
            schema, SortSpec.of("A", "B", "C"), N_ROWS,
            domains=[32, 64, 256, 8], seed=7,
        )
        stats = ComparisonStats()
        result = modify_sort_order(
            table, SortSpec.of("A", "C", "B"), stats=stats, config=cfg
        )
        METRICS.absorb_stats(stats)
        print(f"modified {len(result.rows):,} rows to {result.sort_spec}")

        print("\n--- /metrics (first lines a scraper sees) ---")
        metrics_text = fetch(server.url + "/metrics").decode()
        for line in metrics_text.splitlines()[:9]:
            print(line)
        n_series = sum(
            1 for line in metrics_text.splitlines()
            if line and not line.startswith("#")
        )
        print(f"... {n_series} series total")

        print("\n--- /healthz ---")
        health = json.loads(fetch(server.url + "/healthz"))
        print(f"status: {health['status']}")
        for name, check in health["checks"].items():
            print(f"  {name}: {check['status']}")

        print("\n--- /varz (slow-query tail) ---")
        varz = json.loads(fetch(server.url + "/varz"))
        for entry in varz["slowlog"]["entries"][-3:]:
            print(
                f"  {entry['kind']}: {entry['elapsed_ms']} ms, "
                f"strategy={entry.get('order_strategy')}"
            )

        print("\n--- structured log (decision-grade events) ---")
        for event in read_log(log_path)[:5]:
            keys = [
                k for k in ("qid", "strategy", "rows", "decision")
                if k in event
            ]
            detail = ", ".join(f"{k}={event[k]}" for k in keys)
            print(f"  {event['event']}: {detail}")
    finally:
        stop_telemetry_server()
        SLOWLOG.disable()
        LOG.disable()
        METRICS.disable()
        METRICS.reset()
    print("\ntelemetry server stopped")


if __name__ == "__main__":
    main()
