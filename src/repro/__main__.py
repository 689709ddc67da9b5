"""Command-line experiment runner: ``python -m repro <experiment>``.

Regenerates the paper's measured artifacts as text tables:

* ``fig10`` — run time + column comparisons, A,B -> B,A (hypothesis 5);
* ``fig11`` — three methods across segment counts (hypothesis 9);
* ``table1`` — the eight prototype cases, auto strategy vs full sort;
* ``design`` — physical design + join planning with/without modification
  (hypothesis 10);
* ``trace`` — run one Table 1 case under the span tracer and metrics
  registry (``--case N``), write the JSON-lines trace artifact, and
  print the span tree plus Prometheus-format metrics;
* ``serve`` — run the live telemetry endpoint (``--telemetry-port P``;
  ``/metrics``, ``/healthz``, ``/varz``) as a standalone process:
  ``--warm`` runs one small modify first so ``/metrics`` has non-zero
  series, ``--duration S`` exits after S seconds (default: serve until
  interrupted); ``--load`` instead drives an
  :class:`~repro.serve.OrderService` with the closed-loop
  duplicate-heavy mix (16 threads over 4 orders, 8 requests each)
  while telemetry is live, prints the coalescing report, and exits
  non-zero unless duplicates coalesced, executions < requests, and
  every response matched serial uncached execution bit for bit;
* ``all`` — everything above except ``trace`` and ``serve``.

Wall time is quoted against the fastest baseline: ``table1`` prints the
kernel beside the same engine's full sort (``method="full_sort"``, with
auto ÷ full), bare ``sorted()`` and ``sorted()`` + ``derive_ovcs``;
cache, planner and serving performance are measured end to end by
``benchmarks/e2e/run.py``.

Options: ``--rows 2**N`` via ``--log2-rows N`` (default 14), ``--seed``.
Observability: ``--trace FILE`` records spans for any experiment and
writes them as JSON-lines; ``--metrics`` prints Prometheus-format
metrics after the run; ``--telemetry-port P`` serves ``/metrics`` +
``/healthz`` + ``/varz`` live while any experiment runs (0 picks a
free port).  To profile, use the standard library:
``python -m cProfile -s cumtime -m repro table1``.

Execution configuration (:mod:`repro.exec`) comes from the ``REPRO_*``
environment variables alone (:meth:`~repro.exec.ExecutionConfig.
from_env`): ``REPRO_ENGINE``, ``REPRO_MAX_FAN_IN``, ``REPRO_SPILL_DIR``,
``REPRO_CACHE``, ``REPRO_CACHE_BUDGET``, ``REPRO_SERVICE_THREADS``,
``REPRO_SERVICE_QUEUE_DEPTH`` and ``REPRO_PLAN_WINDOW_MS``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from operator import itemgetter

from .bench.figures import (
    FIG10_LIST_LENGTHS,
    run_fig10_experiment,
    run_fig11_experiment,
)
from .bench.harness import format_table
from .core.modify import modify_sort_order
from .exec import ExecutionConfig
from .model import SortSpec
from .ovc.derive import derive_ovcs
from .ovc.stats import ComparisonStats
from .workloads.generators import random_sorted_table
from .model import Schema


def _fig10(n_rows: int, seed: int) -> None:
    results = run_fig10_experiment(n_rows, FIG10_LIST_LENGTHS, seed=seed)
    print(
        format_table(
            [r.as_row() for r in results],
            f"Figure 10: A,B -> B,A with {n_rows:,} rows "
            "(run time and comparison counts)",
        )
    )


def _fig11(n_rows: int, seed: int) -> None:
    results = run_fig11_experiment(n_rows, seed=seed)
    print(
        format_table(
            [r.as_row() for r in results],
            f"Figure 11: A,B,C -> A,C,B with {n_rows:,} rows, "
            "three methods across segment counts",
        )
    )


_TABLE1 = {
    0: (("A", "B"), ("A",)),
    1: (("A",), ("A", "B")),
    2: (("A", "B"), ("B",)),
    3: (("A", "B"), ("B", "A")),
    4: (("A", "B", "C"), ("A", "C")),
    5: (("A", "B", "C"), ("A", "C", "B")),
    6: (("A", "B", "C", "D"), ("A", "C", "D")),
    7: (("A", "B", "C", "D"), ("A", "C", "B", "D")),
}


def _best_ms(call, reps: int = 5) -> float:
    """Fastest of ``reps`` timed calls, in milliseconds."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 2)


def _table1(n_rows: int, seed: int, cfg: ExecutionConfig | None = None) -> None:
    """Per Table 1 case: the reference engine's time and column
    comparisons (auto strategy vs full sort — the paper's claim, machine
    independent), then wall time of the default engine's kernel beside
    the same engine's full sort and the two honest floors on the same
    rows."""
    schema = Schema.of("A", "B", "C", "D")
    domains = {"A": 32, "B": 64, "C": 256, "D": 8}
    rows_out = []
    for case, (inp, out) in _TABLE1.items():
        table = random_sorted_table(
            schema,
            SortSpec(inp),
            n_rows,
            domains=[domains[c] for c in schema.columns],
            seed=seed,
        )
        cells = {"case": case, "from": ",".join(inp), "to": ",".join(out)}
        for method in ("auto", "full_sort"):
            stats = ComparisonStats()
            start = time.perf_counter()
            modify_sort_order(
                table, SortSpec(out), method=method, stats=stats, config=cfg
            )
            cells[f"{method}_s"] = round(time.perf_counter() - start, 4)
            cells[f"{method}_colcmp"] = stats.column_comparisons
        spec = SortSpec(out)
        positions = spec.positions(schema)
        key = itemgetter(*positions)
        cells["kernel_ms"] = _best_ms(
            lambda: modify_sort_order(table, spec, config=cfg)
        )
        cells["full_kernel_ms"] = _best_ms(
            lambda: modify_sort_order(
                table, spec, method="full_sort", config=cfg
            )
        )
        cells["auto/full"] = round(
            cells["kernel_ms"] / max(cells["full_kernel_ms"], 0.01), 2
        )
        cells["sorted_ms"] = _best_ms(lambda: sorted(table.rows, key=key))
        cells["sorted_derive_ms"] = _best_ms(
            lambda: derive_ovcs(sorted(table.rows, key=key), positions)
        )
        rows_out.append(cells)
    print(
        format_table(
            rows_out,
            f"Table 1 cases: exploiting the existing order vs full sort "
            f"({n_rows:,} rows)",
        )
    )


def _design(n_rows: int) -> None:
    from .optimizer.join_planning import JoinEdge, Relation, plan_joins
    from .optimizer.physical_design import design_indexes

    roster = SortSpec.of("course", "student")
    transcript = SortSpec.of("student", "course")
    rows_out = []
    for label, allowed in (("traditional", False), ("with modification", True)):
        result = design_indexes(
            [roster, transcript], n_rows=n_rows, modification_allowed=allowed
        )
        rows_out.append(
            {
                "design": label,
                "indexes": len(result.chosen),
                "index_cost": round(result.index_cost),
                "query_cost": round(result.total_query_cost),
            }
        )
    print(
        format_table(
            rows_out,
            f"Physical design for the enrollment workload ({n_rows:,} rows)",
        )
    )
    print()

    relations = [
        Relation(
            "students", max(n_rows // 20, 4), (SortSpec.of("s.student"),),
            unique_keys=(frozenset({"s.student"}),),
        ),
        Relation(
            "courses", max(n_rows // 400, 2), (SortSpec.of("c.course"),),
            unique_keys=(frozenset({"c.course"}),),
        ),
        Relation("enrollments", n_rows, (SortSpec.of("e.course", "e.student"),)),
    ]
    edges = [
        JoinEdge("students", "enrollments", ("s.student",), ("e.student",),
                 selectivity=20 / n_rows),
        JoinEdge("courses", "enrollments", ("c.course",), ("e.course",),
                 selectivity=400 / n_rows),
    ]
    rows_out = []
    for label, allowed in (("sorted-or-sort", False), ("with modification", True)):
        plan = plan_joins(relations, edges, modification_allowed=allowed)
        rows_out.append({"planner": label, "plan_cost": round(plan.cost)})
    print(
        format_table(
            rows_out,
            "Three-table join planning (students x enrollments x courses)",
        )
    )


def _serve_load(
    n_rows: int, seed: int, json_path: str | None, cfg: ExecutionConfig,
) -> int:
    from .serve.load import check_serve_record, run_serve_trajectory

    # The load exercises the full sharing stack, so the order cache is
    # always on: the configured budget and spill directory apply.
    record = run_serve_trajectory(
        n_rows,
        seed=seed,
        threads=16,
        requests_per_thread=8,
        n_orders=4,
        config=cfg.with_(cache="on"),
    )
    summary = {
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
    print(
        format_table(
            [summary],
            f"order service, duplicate-heavy closed loop ({n_rows:,} rows; "
            f"{record['requests']} requests: {record['cache_hits']} hits, "
            f"{record['executions']} executions, "
            f"{record['coalesced_requests']} coalesced; "
            f"p99 {record['latency_ms']['p99']}ms)",
        )
    )
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"wrote {json_path}")
    problems = check_serve_record(record)
    for problem in problems:
        print(f"SERVE LOAD FAILURE: {problem}")
    return 1 if problems else 0


def _write_trace_artifact(path: str, records: list[dict],
                          metrics: dict | None, meta: dict) -> None:
    """Write a JSON-lines span artifact."""
    from .obs.exporters import write_jsonl

    write_jsonl(path, records, metrics=metrics, meta=meta)
    print(f"wrote {path} ({len(records)} spans, jsonl)")


def _trace(
    case: int, n_rows: int, seed: int, out: str,
    cfg: ExecutionConfig | None = None,
) -> int:
    """Trace one Table 1 case end to end and report the timeline."""
    from .obs import METRICS, TRACER
    from .obs.exporters import prometheus_text, render_tree

    if case not in _TABLE1:
        raise SystemExit(f"--case must be one of {sorted(_TABLE1)}; got {case}")
    inp, out_cols = _TABLE1[case]
    schema = Schema.of("A", "B", "C", "D")
    domains = {"A": 32, "B": 64, "C": 256, "D": 8}
    table = random_sorted_table(
        schema,
        SortSpec(inp),
        n_rows,
        domains=[domains[c] for c in schema.columns],
        seed=seed,
    )
    TRACER.enable(clear=True)
    METRICS.enable(clear=True)
    try:
        start = time.perf_counter()
        modify_sort_order(table, SortSpec(out_cols), config=cfg)
        elapsed = time.perf_counter() - start
        records = TRACER.drain()
        snapshot = METRICS.as_dict()
    finally:
        TRACER.disable()
        TRACER.reset()
        METRICS.disable()
        METRICS.reset()

    print(
        f"case {case}: {','.join(inp)} -> {','.join(out_cols)}  "
        f"({n_rows:,} rows, {elapsed:.4f}s)"
    )
    print()
    print(render_tree(records))
    print()
    print(prometheus_text(snapshot), end="")
    print()
    meta = {
        "case": case,
        "from": ",".join(inp),
        "to": ",".join(out_cols),
        "n_rows": n_rows,
        "seed": seed,
    }
    _write_trace_artifact(out, records, snapshot, meta)
    return 0


def _warm_workload(cfg: ExecutionConfig) -> None:
    """One small Table 1 modify so a fresh telemetry process has
    non-zero ``modify.*``/``comparisons.*`` series to scrape."""
    from .obs import METRICS

    schema = Schema.of("A", "B", "C", "D")
    table = random_sorted_table(
        schema, SortSpec(("A", "B", "C")), 4096,
        domains=[32, 64, 256, 8], seed=0,
    )
    stats = ComparisonStats()
    modify_sort_order(table, SortSpec(("A", "C", "B")), stats=stats, config=cfg)
    METRICS.absorb_stats(stats)


def _serve(args, cfg: ExecutionConfig) -> int:
    """Run the telemetry endpoint as this process's purpose."""
    from .obs import METRICS
    from .obs.server import start_telemetry_server, stop_telemetry_server

    if not METRICS.enabled:
        METRICS.enable(clear=False)
    server = start_telemetry_server(
        port=args.telemetry_port or 0, config=cfg
    )
    print(
        f"telemetry serving on {server.url} (/metrics /healthz /varz)",
        flush=True,
    )
    if args.warm:
        _warm_workload(cfg)
        print("warmed: one Table 1 modify recorded", flush=True)
    try:
        if args.load:
            n_rows = 1 << args.log2_rows
            return _serve_load(n_rows, args.seed, args.json, cfg)
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            while True:  # pragma: no cover - interactive serve loop
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - operator Ctrl-C
        pass
    finally:
        stop_telemetry_server()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiment",
        choices=[
            "fig10", "fig11", "table1", "design", "trace", "serve", "all",
        ],
    )
    parser.add_argument("--log2-rows", type=int, default=14)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="with 'serve --load': also write the JSON record",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="record spans for the run and write them as JSON-lines",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print Prometheus-format metrics after the run",
    )
    parser.add_argument(
        "--case",
        type=int,
        default=5,
        help="with 'trace': the Table 1 case to trace (default 5)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default="trace.jsonl",
        help="with 'trace': JSON-lines artifact path (default trace.jsonl)",
    )
    parser.add_argument(
        "--load",
        action="store_true",
        help="with 'serve': drive the order service with a closed-loop"
        " duplicate-heavy load and print the report, instead of idling",
    )
    parser.add_argument(
        "--telemetry-port",
        type=int,
        metavar="PORT",
        default=None,
        help="serve /metrics, /healthz and /varz on this port while the"
        " run executes (0 picks a free port); required meaningfully by"
        " 'serve', optional alongside any experiment",
    )
    parser.add_argument(
        "--duration",
        type=float,
        metavar="SECONDS",
        default=None,
        help="with 'serve': exit after this many seconds"
        " (default: serve until interrupted)",
    )
    parser.add_argument(
        "--warm",
        action="store_true",
        help="with 'serve': run one small Table 1 modify first so"
        " /metrics exposes non-zero series immediately",
    )
    args = parser.parse_args(argv)
    n_rows = 1 << args.log2_rows
    cfg = ExecutionConfig.from_env()

    if args.experiment == "serve":
        return _serve(args, cfg)

    server = None
    if args.telemetry_port is not None:
        from .obs import METRICS
        from .obs.server import start_telemetry_server

        if not METRICS.enabled:
            METRICS.enable(clear=False)
        server = start_telemetry_server(port=args.telemetry_port, config=cfg)
        print(
            f"telemetry serving on {server.url} (/metrics /healthz /varz)",
            flush=True,
        )
    try:
        return _dispatch(args, n_rows, cfg)
    finally:
        if server is not None:
            from .obs.server import stop_telemetry_server

            stop_telemetry_server()


def _dispatch(args, n_rows: int, cfg: ExecutionConfig) -> int:
    """Run the chosen experiment; shared by every main() entry path."""
    if args.experiment == "trace":
        return _trace(args.case, n_rows, args.seed, args.out, cfg=cfg)

    from .obs import METRICS, TRACER

    tracing = args.trace is not None
    if tracing:
        TRACER.enable(clear=True)
    if args.metrics:
        METRICS.enable(clear=True)

    if args.experiment in ("fig10", "all"):
        _fig10(n_rows, args.seed)
        print()
    if args.experiment in ("fig11", "all"):
        _fig11(n_rows, args.seed)
        print()
    if args.experiment in ("table1", "all"):
        _table1(n_rows, args.seed, cfg=cfg)
        print()
    if args.experiment in ("design", "all"):
        _design(n_rows)

    if args.metrics:
        from .obs.exporters import prometheus_text

        print()
        print(prometheus_text(METRICS), end="")
        METRICS.disable()
        METRICS.reset()
    if tracing:
        records = TRACER.drain()
        TRACER.disable()
        meta = {"experiment": args.experiment, "n_rows": n_rows,
                "seed": args.seed}
        _write_trace_artifact(args.trace, records, None, meta)
    return 0


if __name__ == "__main__":
    sys.exit(main())
