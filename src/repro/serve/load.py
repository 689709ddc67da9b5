"""Closed-loop load driver for the order service.

Drives an :class:`~repro.serve.OrderService` with a duplicate-heavy
mix — ``threads`` worker threads, each bound to one of ``orders``
distinct target orders, all requesting the *same* source table — and
measures what the serving layer is for: with 16 threads spread over 4
orders, a perfect uncached service runs one execution per order per
wave and coalesces the other three duplicates onto it; with the order
cache on, a wave that finds its orders cached is answered at submit
(``cache_hits``) and executes nothing.

The driver is closed-loop (each thread waits for its response before
issuing the next request), so offered load adapts to service speed and
the interesting ratio is **executions per request** rather than
throughput alone.  The report is a plain JSON-friendly dict.

:func:`run_serve_trajectory` is what ``python -m repro serve --load``
runs: the load through the configured (cached) service, then through an
uncached one — a warm cache leaves almost nothing to coalesce, so
coalescing is judged where it is the only way to share work — plus
:func:`verify_fidelity` on both.  :func:`check_serve_record` returns
the gate's findings (the CLI exits non-zero on any):

* fidelity — one served response per order, from either service,
  equals a serial uncached :class:`~repro.engine.sort_op.Sort` on rows
  and offset-value codes;
* **executions_per_request** < 1.0 on the cached pass;
* **coalesced_requests** > 0 on the uncached pass;
* no request failed on either pass.

It is a fidelity gate, not a performance baseline: serving latency and
throughput are measured by ``benchmarks/e2e/run.py`` and judged by
``compare.py``.
"""

from __future__ import annotations

import platform
import threading
import time

from ..cache import configure_cache, reset_cache
from ..engine.scans import TableScan
from ..engine.sort_op import Sort
from ..exec import ExecutionConfig
from ..model import Schema, SortSpec, Table
from ..workloads.generators import random_table
from .errors import DeadlineExceededError, ServiceOverloadError
from .service import OrderService

_SCHEMA = Schema.of("A", "B", "C", "D")
_DOMAINS = {"A": 32, "B": 64, "C": 256, "D": 8}


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    if not sorted_vals:
        return 0.0
    rank = max(1, -(-int(q * len(sorted_vals)) // 100))  # ceil(q*n/100)
    return sorted_vals[min(rank, len(sorted_vals)) - 1]


def default_orders(table: Table, n: int) -> list[SortSpec]:
    """``n`` distinct single-leading-column orders over ``table``.

    Rotations of the column list (``B,C,...,A`` etc.), so every order
    disagrees in its leading column — no accidental prefix sharing.
    """
    cols = list(table.schema.columns)
    if n > len(cols):
        raise ValueError(
            f"need {n} distinct orders but table has {len(cols)} columns"
        )
    return [SortSpec(cols[i:] + cols[:i]) for i in range(n)]


def run_load(
    service: OrderService,
    table: Table,
    orders: list[SortSpec],
    *,
    threads: int = 16,
    requests_per_thread: int = 8,
    timeout: float | None = 60.0,
) -> dict:
    """Run the closed-loop duplicate-heavy load; return the report dict.

    Thread *t* issues every request against ``orders[t % len(orders)]``,
    so each order is requested by ``threads / len(orders)`` concurrent
    threads — the coalescing-friendly worst case for a naive server —
    under one tenant per order.  A barrier aligns each wave to maximise
    overlap.  Rejections and deadline misses are counted, not raised.
    ``cache_hits``, ``executions`` and ``coalesced_requests`` are the
    service counters' deltas over the run.
    """
    if threads < 1 or requests_per_thread < 1:
        raise ValueError("threads and requests_per_thread must be >= 1")
    if not orders:
        raise ValueError("need at least one target order")
    before = service.counters()
    lock = threading.Lock()
    latencies: list[float] = []
    outcomes = {"ok": 0, "coalesced": 0, "rejected": 0,
                "deadline_exceeded": 0, "errors": 0}
    barrier = threading.Barrier(threads)

    def _worker(t: int) -> None:
        spec = orders[t % len(orders)]
        tenant = f"order-{t % len(orders)}"
        for _ in range(requests_per_thread):
            barrier.wait()
            try:
                resp = service.order_by(
                    table, spec, tenant=tenant, timeout=timeout
                )
            except ServiceOverloadError:
                with lock:
                    outcomes["rejected"] += 1
            except DeadlineExceededError:
                with lock:
                    outcomes["deadline_exceeded"] += 1
            except Exception:  # noqa: BLE001 - counted, report stays whole
                with lock:
                    outcomes["errors"] += 1
            else:
                with lock:
                    outcomes["ok"] += 1
                    latencies.append(resp.latency_s)
                    if resp.coalesced:
                        outcomes["coalesced"] += 1

    t0 = time.perf_counter()
    workers = [
        threading.Thread(target=_worker, args=(t,), name=f"load-{t}")
        for t in range(threads)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    wall_s = time.perf_counter() - t0

    after = service.counters()
    requests = after["requests"] - before["requests"]
    executions = after["executions"] - before["executions"]
    latencies.sort()
    lat_ms = [v * 1000.0 for v in latencies]
    return {
        "threads": threads,
        "requests_per_thread": requests_per_thread,
        "orders": [",".join(str(c) for c in o.columns) for o in orders],
        "rows": len(table.rows),
        "requests": requests,
        "cache_hits": after["cache_hits"] - before["cache_hits"],
        "executions": executions,
        "executions_per_request": (
            round(executions / requests, 4) if requests else 0.0
        ),
        "coalesced_requests": after["coalesced"] - before["coalesced"],
        "rejected": outcomes["rejected"],
        "deadline_exceeded": outcomes["deadline_exceeded"],
        "errors": outcomes["errors"],
        "completed": outcomes["ok"],
        "wall_s": round(wall_s, 4),
        "throughput_rps": round(outcomes["ok"] / wall_s, 2) if wall_s else 0.0,
        "latency_ms": {
            "p50": round(_percentile(lat_ms, 50), 3),
            "p95": round(_percentile(lat_ms, 95), 3),
            "p99": round(_percentile(lat_ms, 99), 3),
            "mean": round(sum(lat_ms) / len(lat_ms), 3) if lat_ms else 0.0,
            "max": round(lat_ms[-1], 3) if lat_ms else 0.0,
        },
        "service": {
            "threads": service.config.service_threads,
            "queue_depth": service.config.service_queue_depth,
            "cache": service.config.cache,
            "plan_window_ms": service.config.plan_window_ms,
        },
    }


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
    """The full load + fidelity sweep; returns the JSON-ready record:
    the cached pass's report, and the uncached pass's under
    ``uncached``."""
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
    def _load(service: OrderService) -> dict:
        return run_load(
            service, table, orders,
            threads=threads, requests_per_thread=requests_per_thread,
        )

    if cfg.cache != "off":
        configure_cache(budget=cfg.cache_budget, spill_dir=cfg.spill_dir)
    try:
        with OrderService(cfg) as service:
            report = _load(service)
            # Warm-path fidelity, then through a service that cannot be
            # cache-assisted.
            fidelity_problems = verify_fidelity(service, table, orders)
    finally:
        if cfg.cache != "off":
            reset_cache()
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
    """Gate findings for a :func:`run_serve_trajectory` record (empty =
    pass)."""
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
