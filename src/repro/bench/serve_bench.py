"""Order-service load check: duplicate-heavy closed-loop load.

The serving layer's acceptance bar is work sharing under concurrency:
with 16 closed-loop threads spread over 4 distinct target orders (so
each order is requested by 4 threads at once), the service must answer
every request bit-identically to a serial uncached execution while
running strictly fewer sorts than it admits requests — duplicates
coalesce onto in-flight executions and sequential repeats hit the
order cache.  This module checks exactly that and emits a
machine-readable record (``serve --load --json PATH``).  It is a
fidelity gate, not a performance baseline — serving latency and
throughput are measured by ``benchmarks/e2e/run.py`` and judged by
``compare.py``.

The record carries:

* **executions_per_request** — the headline ratio (1.0 means no
  sharing at all; the gate requires < 1.0);
* **coalesced_requests** — duplicates that rode on another request's
  in-flight execution (the gate requires > 0);
* **latency_ms p50/p99** — per-request submit-to-response latency
  under the duplicate-heavy load;
* **fidelity_ok** — one served response per order compared field by
  field (rows, offset-value codes, comparison counters) against a
  serial uncached :class:`~repro.engine.sort_op.Sort`.

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


def _serial_reference(table: Table, spec: SortSpec) -> tuple:
    """(rows, ovcs, stats) of a solo uncached execution — the contract."""
    op = Sort(TableScan(table), spec, config=ExecutionConfig(cache="off"))
    out = op.to_table()
    return out.rows, out.ovcs, op.stats.as_dict()


def verify_fidelity(
    service: OrderService,
    table: Table,
    orders: list[SortSpec],
    check_stats: bool = True,
) -> list[str]:
    """One served response per order vs its serial uncached reference.

    Rows and offset-value codes must match bit for bit always.
    Comparison counters match only on the uncached path
    (``check_stats=True``): a warm order cache legitimately replays the
    counters of the (possibly cheaper modify-from-cache) execution that
    installed the entry — exactly what a direct ``order_by`` against
    the same warm cache would report.
    """
    problems = []
    for spec in orders:
        rows, ovcs, stats = _serial_reference(table, spec)
        resp = service.order_by(table, spec)
        label = ",".join(str(c) for c in spec.columns)
        if resp.table.rows != rows:
            problems.append(f"order {label}: rows diverged")
        if resp.table.ovcs != ovcs:
            problems.append(f"order {label}: offset-value codes diverged")
        if check_stats and resp.stats.as_dict() != stats:
            problems.append(f"order {label}: comparison counters diverged")
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

    if cfg.cache != "off":
        configure_cache(budget=cfg.cache_budget, ttl=cfg.cache_ttl)
    try:
        with OrderService(cfg) as service:
            report = run_load(
                service, table, orders,
                threads=threads, requests_per_thread=requests_per_thread,
            )
            # Warm-path fidelity: rows and codes vs serial uncached
            # (the counters are the installing execution's replay —
            # see verify_fidelity).
            fidelity_problems = verify_fidelity(
                service, table, orders, check_stats=cfg.cache == "off"
            )
        # Uncached-path fidelity: the full bit-identity contract,
        # counters included, through a service that cannot be
        # cache-assisted.
        if cfg.cache != "off":
            with OrderService(cfg.with_(cache="off")) as bare:
                fidelity_problems += verify_fidelity(bare, table, orders)
        # Batched phase: the same load through the micro-batching
        # window against a fresh cache, for latency deltas.  Rows and
        # codes stay bit-identical; with the cache on, counters are
        # replays of the installing execution, so check_stats stays
        # off — the same contract as the warm-cache path above.
        if cfg.cache != "off":
            reset_cache()
            configure_cache(budget=cfg.cache_budget, ttl=cfg.cache_ttl)
        batched_cfg = cfg.with_(
            plan_window_ms=(
                cfg.plan_window_ms if cfg.plan_window_ms is not None
                else 25.0
            )
        )
        with OrderService(batched_cfg) as batched:
            batched_report = run_load(
                batched, table, orders,
                threads=threads, requests_per_thread=requests_per_thread,
            )
            batched_problems = verify_fidelity(
                batched, table, orders, check_stats=False
            )
            batched_counters = batched.counters()
        fidelity_problems += [f"batched: {p}" for p in batched_problems]
    finally:
        if cfg.cache != "off":
            reset_cache()
    return {
        "n_rows": n_rows,
        "seed": seed,
        "python": platform.python_version(),
        "fidelity_ok": not fidelity_problems,
        "fidelity_problems": fidelity_problems,
        **report,
        "batched": {
            "plan_window_ms": batched_cfg.plan_window_ms,
            "requests": batched_report["requests"],
            "executions": batched_report["executions"],
            "executions_per_request": (
                batched_report["executions_per_request"]
            ),
            "coalesced_requests": batched_report["coalesced_requests"],
            "planned_requests": batched_counters["planned"],
            "planned_batches": batched_counters["planned_batches"],
            "throughput_rps": batched_report["throughput_rps"],
            "latency_ms": batched_report["latency_ms"],
            "fidelity_ok": not batched_problems,
        },
        "latency_delta_ms": {
            q: round(
                batched_report["latency_ms"][q] - report["latency_ms"][q],
                3,
            )
            for q in ("p50", "p95", "p99")
        },
    }


def check_serve_record(record: dict) -> list[str]:
    """CI-gate findings for a serving record (empty = pass)."""
    problems = list(record.get("fidelity_problems", []))
    if record["errors"]:
        problems.append(f"{record['errors']} request(s) failed")
    if record["requests"] and record["executions"] >= record["requests"]:
        problems.append(
            f"no work sharing: {record['executions']} executions for "
            f"{record['requests']} requests"
        )
    if record["coalesced_requests"] <= 0:
        problems.append("no requests were coalesced under duplicate load")
    batched = record.get("batched")
    if batched is not None and not batched.get("fidelity_ok", True):
        problems.append("batched serving path failed rows/codes fidelity")
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
            "executions": record["executions"],
            "exec/req": record["executions_per_request"],
            "coalesced": record["coalesced_requests"],
            "p50_ms": record["latency_ms"]["p50"],
            "p99_ms": record["latency_ms"]["p99"],
            "rps": record["throughput_rps"],
            "batched_p50_ms": record.get("batched", {})
            .get("latency_ms", {}).get("p50"),
            "d_p50_ms": record.get("latency_delta_ms", {}).get("p50"),
            "d_p95_ms": record.get("latency_delta_ms", {}).get("p95"),
            "fidelity_ok": record["fidelity_ok"],
        }
    ]
