"""Command-line experiment runner: ``python -m repro <experiment>``.

Regenerates the paper's measured artifacts as text tables:

* ``fig10`` — run time + column comparisons, A,B -> B,A (hypothesis 5);
* ``fig11`` — three methods across segment counts (hypothesis 9);
* ``table1`` — the eight prototype cases, auto strategy vs full sort;
* ``design`` — physical design + join planning with/without modification
  (hypothesis 10);
* ``bench`` — reference vs fast engine across the fig10/fig11 cells
  (``--json PATH`` writes the machine-readable trajectory artifact;
  cache, planner and serving performance are measured end to end by
  ``benchmarks/e2e/run.py``, not here);
* ``trace`` — run one Table 1 case under the span tracer and metrics
  registry (``--case N``), write the trace artifact (Chrome
  trace-event JSON by default, JSON-lines for ``*.jsonl`` paths),
  validate it, and print the span tree plus Prometheus-format metrics;
* ``serve`` — run the live telemetry endpoint (``--telemetry-port P``;
  ``/metrics``, ``/healthz``, ``/varz``) as a standalone process:
  ``--warm`` runs one small modify first so ``/metrics`` has non-zero
  series, ``--duration S`` exits after S seconds (default: serve until
  interrupted); ``--load`` instead drives an
  :class:`~repro.serve.OrderService` with the closed-loop
  duplicate-heavy mix (``--load-threads`` / ``--load-requests`` /
  ``--load-orders``; 16 threads over 4 orders by default) while
  telemetry is live, prints the coalescing report, and exits non-zero
  unless duplicates coalesced, executions < requests, and every
  response matched serial uncached execution bit for bit;
* ``all`` — everything above except ``bench``, ``trace`` and ``serve``.

``bench`` verifies bit-identical rows and codes in every cell and
exits non-zero on any fidelity failure, so CI smoke runs gate
correctness, not just completion.

Options: ``--rows 2**N`` via ``--log2-rows N`` (default 14), ``--seed``.
Observability: ``--trace FILE`` records spans for any experiment and
writes the artifact; ``--metrics`` embeds per-cell metric snapshots in
the bench artifact (prints Prometheus text elsewhere);
``--telemetry-port P`` serves ``/metrics`` + ``/healthz`` + ``/varz``
live while any experiment runs (0 picks a free port); ``--profile
FILE`` samples the run's stacks and writes a collapsed-stack
(flamegraph) profile.

Execution configuration (:mod:`repro.exec`): the order cache
(:mod:`repro.cache`) is governed by ``--cache off|on``,
``--cache-budget``, ``--cache-ttl`` and ``--spill-dir`` (where the
entries its budget cannot hold are spilled); the order service by
``--service-threads``, ``--service-queue-depth``, and
``--service-deadline-ms``.  Every flag is named after the
:class:`~repro.exec.ExecutionConfig` field it sets, and the same
fields resolve with precedence **file < environment < flags**: a
``--config FILE`` JSON object is the base, ``REPRO_*`` variables
(``REPRO_SPILL_DIR``, ``REPRO_CACHE``, ``REPRO_CACHE_BUDGET``,
``REPRO_CACHE_TTL``, ``REPRO_SERVICE_THREADS``,
``REPRO_SERVICE_QUEUE_DEPTH``, ``REPRO_SERVICE_DEADLINE_MS``)
override it, and explicit command-line flags win.
"""

from __future__ import annotations

import argparse
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


def _exec_config(args) -> ExecutionConfig:
    """The run's ExecutionConfig.

    Precedence (lowest to highest): ``--config FILE`` values, then
    ``REPRO_*`` environment variables, then explicit flags — each flag
    is named after the config field it sets (``--cache-budget`` ->
    ``cache_budget``, ``--service-threads`` -> ``service_threads``, ...).
    """
    base = (
        ExecutionConfig.from_file(args.config)
        if getattr(args, "config", None) is not None
        else None
    )
    cfg = ExecutionConfig.from_env(base=base)
    overrides: dict = {}
    for field in (
        "spill_dir", "cache", "cache_budget", "cache_ttl",
        "service_threads", "service_queue_depth", "service_deadline_ms",
        "plan_window_ms",
    ):
        value = getattr(args, field, None)
        if value is not None:
            overrides[field] = value
    return cfg.with_(**overrides) if overrides else cfg


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
    the two honest floors on the same rows."""
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


def _bench(
    n_rows: int, seed: int, json_path: str | None,
    collect_metrics: bool = False,
) -> int:
    from .bench.trajectory import run_trajectory, write_trajectory

    record = run_trajectory(n_rows, seed=seed, collect_metrics=collect_metrics)
    display = [
        {k: v for k, v in cell.items() if k != "metrics"}
        for cell in record["cells"]
    ]
    print(
        format_table(
            display,
            f"reference vs fast engines ({n_rows:,} rows; "
            f"min speedup {record['min_speedup']}x, "
            f"geomean {record['geomean_speedup']}x)",
        )
    )
    if json_path:
        write_trajectory(json_path, record)
        print(f"wrote {json_path}")
    if not record["fidelity_ok"]:
        print("FIDELITY FAILURE: fast engine diverged from reference")
        return 1
    return 0


def _serve_load(
    n_rows: int, seed: int, json_path: str | None,
    cfg: ExecutionConfig, args,
) -> int:
    from .bench.serve_bench import (
        check_serve_record,
        format_serve_summary,
        run_serve_trajectory,
        write_serve_trajectory,
    )

    # The load exercises the full sharing stack, so the order cache
    # defaults on unless the invocation said otherwise.
    config = cfg if cfg.cache != "off" else cfg.with_(cache="on")
    record = run_serve_trajectory(
        n_rows,
        seed=seed,
        threads=args.load_threads,
        requests_per_thread=args.load_requests,
        n_orders=args.load_orders,
        config=config,
    )
    print(
        format_table(
            format_serve_summary(record),
            f"order service, duplicate-heavy closed loop ({n_rows:,} rows; "
            f"{record['executions']} executions for {record['requests']} "
            f"requests, p99 {record['latency_ms']['p99']}ms)",
        )
    )
    if json_path:
        write_serve_trajectory(json_path, record)
        print(f"wrote {json_path}")
    problems = check_serve_record(record)
    for problem in problems:
        print(f"SERVE LOAD FAILURE: {problem}")
    return 1 if problems else 0


def _write_trace_artifact(path: str, records: list[dict],
                          metrics: dict | None, meta: dict) -> int:
    """Write (and for Chrome traces validate) a span artifact."""
    from .obs.exporters import (
        validate_chrome_trace,
        write_chrome_trace,
        write_jsonl,
    )

    if path.endswith(".jsonl"):
        write_jsonl(path, records, metrics=metrics, meta=meta)
        print(f"wrote {path} ({len(records)} spans, jsonl)")
        return 0
    obj = write_chrome_trace(path, records, metrics=metrics)
    errors = validate_chrome_trace(obj)
    print(f"wrote {path} ({len(records)} spans, chrome trace)")
    if errors:
        for err in errors:
            print(f"INVALID TRACE: {err}")
        return 1
    return 0


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
    return _write_trace_artifact(out, records, snapshot, meta)


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
            return _serve_load(n_rows, args.seed, args.json, cfg, args)
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
            "fig10", "fig11", "table1", "design", "bench", "trace",
            "serve", "all",
        ],
    )
    parser.add_argument("--log2-rows", type=int, default=14)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--config",
        metavar="FILE",
        default=None,
        help="JSON file of ExecutionConfig fields; precedence is"
        " file < REPRO_* environment < explicit flags",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="with 'bench' or 'serve --load': also write the JSON record",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="record spans for the run and write the artifact"
        " (Chrome trace JSON, or JSON-lines for *.jsonl paths)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="with 'bench': embed per-cell metric snapshots in the"
        " artifact; otherwise print Prometheus-format metrics",
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
        default="trace.json",
        help="with 'trace': artifact path (default trace.json)",
    )
    parser.add_argument(
        "--spill-dir",
        metavar="DIR",
        default=None,
        help="directory for the order cache's spill files"
        " (default: system temp)",
    )
    parser.add_argument(
        "--cache",
        nargs="?",
        const="on",
        choices=["off", "on"],
        default=None,
        help="order-cache mode for the run (bare --cache means on)",
    )
    parser.add_argument(
        "--cache-budget",
        metavar="BYTES",
        default=None,
        help="order-cache resident budget (e.g. 8MiB); cold entries"
        " spill to disk beyond it",
    )
    parser.add_argument(
        "--cache-ttl",
        type=float,
        metavar="SECONDS",
        default=None,
        help="order-cache entry lifetime (default: no expiry)",
    )
    parser.add_argument(
        "--service-threads",
        type=int,
        metavar="N",
        default=None,
        help="order-service scheduler threads (with 'serve --load';"
        " default 4)",
    )
    parser.add_argument(
        "--service-queue-depth",
        type=int,
        metavar="N",
        default=None,
        help="order-service admission-queue bound; a full queue rejects"
        " with ServiceOverloadError (default 64)",
    )
    parser.add_argument(
        "--service-deadline-ms",
        type=float,
        metavar="MS",
        default=None,
        help="order-service default per-request deadline"
        " (default: none)",
    )
    parser.add_argument(
        "--plan-window-ms",
        type=float,
        metavar="MS",
        default=None,
        help="order-service micro-batch window: drain the admission"
        " queue at most this long (less when arrivals stop), then run"
        " every drained request as a solo one (default: off)",
    )
    parser.add_argument(
        "--load",
        action="store_true",
        help="with 'serve': drive the order service with a closed-loop"
        " duplicate-heavy load and print the report, instead of idling",
    )
    parser.add_argument(
        "--load-threads",
        type=int,
        metavar="N",
        default=16,
        help="closed-loop load: concurrent client threads (default 16)",
    )
    parser.add_argument(
        "--load-requests",
        type=int,
        metavar="N",
        default=8,
        help="closed-loop load: requests per thread (default 8)",
    )
    parser.add_argument(
        "--load-orders",
        type=int,
        metavar="N",
        default=4,
        help="closed-loop load: distinct target orders; threads spread"
        " over them round-robin, so N threads / N orders duplicates"
        " per wave (default 4)",
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
    parser.add_argument(
        "--profile",
        metavar="FILE",
        default=None,
        help="sample the run's stacks (~200 Hz) and write a"
        " collapsed-stack profile to FILE (flamegraph.pl input)",
    )
    args = parser.parse_args(argv)
    n_rows = 1 << args.log2_rows
    cfg = _exec_config(args)

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
    profiler = None
    if args.profile is not None:
        from .obs.profile import SamplingProfiler

        profiler = SamplingProfiler().start()
    try:
        return _dispatch(args, n_rows, cfg)
    finally:
        if profiler is not None:
            profiler.stop()
            n = profiler.write_collapsed(args.profile)
            print(f"wrote {args.profile} ({n} samples, collapsed stacks)")
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
    plain_metrics = args.metrics and args.experiment != "bench"
    if plain_metrics:
        METRICS.enable(clear=True)

    if args.experiment == "bench":
        rc = _bench(
            n_rows, args.seed, args.json, collect_metrics=args.metrics
        )
    else:
        rc = 0
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

    if plain_metrics:
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
        rc = max(rc, _write_trace_artifact(args.trace, records, None, meta))
    return rc


if __name__ == "__main__":
    sys.exit(main())
