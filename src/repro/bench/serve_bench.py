"""Order-service load check: duplicate-heavy closed-loop load.

The serving layer's acceptance bar is work sharing under concurrency:
with 16 closed-loop threads spread over 4 distinct target orders (so
each order is requested by 4 threads at once), the service must answer
every request bit-identically to a serial uncached execution while
running strictly fewer sorts than it admits requests — repeats are
answered from the order cache at submit, and duplicates coalesce onto
in-flight executions.  A warm cached service leaves almost nothing to
coalesce, so the load runs twice: through the configured (cached)
service, then through an uncached one, where coalescing is the only way
to share work.  This module checks exactly that and emits a
machine-readable record (``serve --load --json PATH``).  It is a
fidelity gate, not a performance baseline — serving latency and
throughput are measured by ``benchmarks/e2e/run.py`` and judged by
``compare.py``.

The record carries the cached pass's report and, under ``uncached``,
the uncached pass's:

* **executions_per_request** — the headline ratio (1.0 means no
  sharing at all; the gate requires < 1.0 on the cached pass);
* **cache_hits** — requests answered at submit from the order cache;
* **coalesced_requests** — duplicates that rode on another request's
  in-flight execution (the gate requires > 0 on the uncached pass);
* **latency_ms p50/p99** — per-request submit-to-response latency
  under the duplicate-heavy load;
* **fidelity_ok** — one served response per order, from the warm
  service and from an uncached one, compared on rows and offset-value
  codes against a serial uncached :class:`~repro.engine.sort_op.Sort`.

``check_serve_record`` returns the CI-gate findings; the CLI
(``python -m repro serve --load``) exits non-zero on any.
"""

from __future__ import annotations

import json
import platform

from ..engine.scans import TableScan
from ..engine.sort_op import Sort
from ..exec import ExecutionConfig
from ..model import Schema, SortSpec, Table
from ..serve import OrderService, default_orders, run_load
from ..workloads.generators import random_table

_SCHEMA = Schema.of("A", "B", "C", "D")
_DOMAINS = {"A": 32, "B": 64, "C": 256, "D": 8}


def verify_fidelity(
    service: OrderService,
    table: Table,
    orders: list[SortSpec],
) -> list[str]:
    """One served response per order vs a solo uncached ``Sort``: rows
    and offset-value codes must match bit for bit."""
    problems = []
    for spec in orders:
        want = Sort(
            TableScan(table), spec, config=ExecutionConfig(cache="off")
        ).to_table()
        resp = service.order_by(table, spec)
        label = ",".join(str(c) for c in spec.columns)
        if resp.table.rows != want.rows:
            problems.append(f"order {label}: rows diverged")
        if resp.table.ovcs != want.ovcs:
            problems.append(f"order {label}: offset-value codes diverged")
    return problems


def run_serve_trajectory(
    n_rows: int,
    seed: int = 0,
    threads: int = 16,
    requests_per_thread: int = 8,
    n_orders: int = 4,
    config: ExecutionConfig | None = None,
) -> dict:
    """The full load + fidelity sweep; returns the JSON-ready record."""
    table = random_table(
        _SCHEMA, n_rows,
        domains=[_DOMAINS[c] for c in _SCHEMA.columns],
        seed=seed,
    )
    orders = default_orders(table, n_orders)
    cfg = config if config is not None else ExecutionConfig(
        cache="on",
        service_queue_depth=max(64, 2 * threads),
    )
    from ..cache import configure_cache, reset_cache

    def _load(service: OrderService) -> dict:
        return run_load(
            service, table, orders,
            threads=threads, requests_per_thread=requests_per_thread,
        )

    if cfg.cache != "off":
        configure_cache(budget=cfg.cache_budget, ttl=cfg.cache_ttl)
    try:
        with OrderService(cfg) as service:
            report = _load(service)
            # Warm-path fidelity, then through a service that cannot be
            # cache-assisted.
            fidelity_problems = verify_fidelity(service, table, orders)
    finally:
        if cfg.cache != "off":
            reset_cache()
    # Warm, a cached service answers repeats at submit and has little
    # left to coalesce; without the cache, coalescing is the only way
    # to share work, so that pass is what the coalescing gate reads.
    with OrderService(cfg.with_(cache="off")) as bare:
        uncached = _load(bare)
        if cfg.cache != "off":
            fidelity_problems += verify_fidelity(bare, table, orders)
    return {
        "n_rows": n_rows,
        "seed": seed,
        "python": platform.python_version(),
        "fidelity_ok": not fidelity_problems,
        "fidelity_problems": fidelity_problems,
        **report,
        "uncached": uncached,
    }


def check_serve_record(record: dict) -> list[str]:
    """CI-gate findings for a serving record (empty = pass)."""
    problems = list(record.get("fidelity_problems", []))
    uncached = record["uncached"]
    for name, run in (("cached", record), ("uncached", uncached)):
        if run["errors"]:
            problems.append(f"{run['errors']} {name} request(s) failed")
    if record["requests"] and record["executions"] >= record["requests"]:
        problems.append(
            f"no work sharing: {record['executions']} executions for "
            f"{record['requests']} requests"
        )
    if uncached["coalesced_requests"] <= 0:
        problems.append(
            "no requests were coalesced under duplicate load without the "
            "cache"
        )
    return problems


def write_serve_trajectory(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def format_serve_summary(record: dict) -> list[dict]:
    """Display rows for :func:`repro.bench.harness.format_table`."""
    return [
        {
            "threads": record["threads"],
            "orders": len(record["orders"]),
            "requests": record["requests"],
            "hits": record["cache_hits"],
            "executions": record["executions"],
            "exec/req": record["executions_per_request"],
            "coalesced": record["coalesced_requests"],
            "coalesced_uncached": record["uncached"]["coalesced_requests"],
            "p50_ms": record["latency_ms"]["p50"],
            "p99_ms": record["latency_ms"]["p99"],
            "rps": record["throughput_rps"],
            "fidelity_ok": record["fidelity_ok"],
        }
    ]
