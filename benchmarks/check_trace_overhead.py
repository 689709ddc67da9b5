#!/usr/bin/env python3
"""Gate: telemetry must cost < 5% of a modify's wall time, on and off.

Two claims are enforced, each with its own measurement:

**Disabled-path budget** — instrumentation left in the hot paths is
(almost) free while disabled: one ``.enabled`` attribute check and a
no-op context-manager round trip per *phase* (never per row).  Verified
without cross-commit timing (which is flaky on shared CI hosts):

1. time the smoke workload (Table 1 case 5 on both engines) with
   tracing disabled (the shipping configuration) — ``T`` seconds;
2. run it once with tracing enabled and count the spans it records —
   ``S`` spans, an upper bound on disabled-path span() calls since the
   kernels gate extra spans on ``TRACER.enabled``;
3. microbench the disabled ``Tracer.span()`` no-op path — ``c``
   seconds per call;
4. require ``S * c < 5% * T``.

**Enabled-path budget** — the live telemetry plane (metrics registry on,
structured log writing, slow-query log armed, ``/metrics`` server up)
must stay under 5% on a full Table 1 sweep.  The sweep is timed in
``PAIRS`` interleaved off/on pairs, and two verdicts must hold:

* **the bill** — each telemetry primitive the "on" sweeps call
  (:data:`PRIMITIVES`: metric updates, histogram observations, log
  events, slow-log marks, spans) is counted, ``n_p`` calls of ``p`` per
  sweep, and microbenched in this process, ``c_p`` seconds per call
  (min of ``COST_BATCHES`` batches); ``sum(n_p * c_p)`` must stay under
  5% of ``T``, the fastest "off" sweep.  A busy host cannot fail it,
  and one primitive grown dearer fails it however fast the rest are;
* **the wall clock** — the median over the pairs of each pair's
  on/off ratio must stay under 1.05.  It sees what no primitive bills
  (building event fields, annotations, the idle server).  A pair's two
  sweeps run back to back, so host drift shifts both alike; the median
  of many pairs stands against one sweep's noise on a shared host and
  against the odd pair a slow spell hits on one side.

Decision-grade events and per-phase counters are the design contract
that makes this cheap; this check keeps it true.

``--json PATH`` records every measured number as a JSON artifact.  Exit
status is non-zero on any budget violation, so CI can gate on it.

Run:  python benchmarks/check_trace_overhead.py [--json overhead.json]
                                                [--log2-rows N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from statistics import median

sys.path.insert(0, "src")

from repro.core.modify import modify_sort_order  # noqa: E402
from repro.exec import ExecutionConfig  # noqa: E402
from repro.model import Schema, SortSpec  # noqa: E402
from repro.obs import LOG, METRICS, SLOWLOG, TRACER  # noqa: E402
from repro.obs import Counter, Gauge, Histogram  # noqa: E402
from repro.obs import SlowQueryLog, StructuredLogger, Tracer  # noqa: E402
from repro.workloads.generators import random_sorted_table  # noqa: E402

BUDGET = 0.05

#: Interleaved telemetry off/on sweep pairs the enabled-path check times.
#: On a shared 2-vCPU host one pair's on/off ratio spreads 10-20 %
#: either way: the median of 5 pairs read over 5 % in 5 of 50 runs at
#: ``--log2-rows 13``, the median of 31 in 1 of 100.
PAIRS = 31

#: The Table 1 order pairs (mirrors repro.__main__._TABLE1).
TABLE1 = [
    (("A", "B"), ("A",)),
    (("A",), ("A", "B")),
    (("A", "B"), ("B",)),
    (("A", "B"), ("B", "A")),
    (("A", "B", "C"), ("A", "C")),
    (("A", "B", "C"), ("A", "C", "B")),
    (("A", "B", "C", "D"), ("A", "C", "D")),
    (("A", "B", "C", "D"), ("A", "C", "B", "D")),
]


def smoke_workload(n_rows: int) -> None:
    schema = Schema.of("A", "B", "C", "D")
    table = random_sorted_table(
        schema, SortSpec.of("A", "B", "C"), n_rows,
        domains=[32, 64, 256, 8], seed=0,
    )
    for engine in ("reference", "fast"):
        modify_sort_order(
            table, SortSpec.of("A", "C", "B"),
            config=ExecutionConfig(engine=engine),
        )


def table1_sweep(n_rows: int) -> None:
    """One full Table 1 pass: all eight order pairs, auto strategy."""
    schema = Schema.of("A", "B", "C", "D")
    domains = [32, 64, 256, 8]
    for inp, out in TABLE1:
        table = random_sorted_table(
            schema, SortSpec(inp), n_rows, domains=domains, seed=0
        )
        modify_sort_order(table, SortSpec(out))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def min_of(fn, reps: int = 3) -> float:
    return min(_timed(fn) for _ in range(reps))


def check_disabled(n_rows: int, report: dict) -> bool:
    """The derived disabled-path budget (steps 1-4 above)."""
    TRACER.disable()
    TRACER.reset()
    disabled_s = min_of(lambda: smoke_workload(n_rows))

    TRACER.enable(clear=True)
    smoke_workload(n_rows)
    n_spans = len(TRACER.drain())
    TRACER.disable()
    TRACER.reset()

    reps = 200_000
    start = time.perf_counter()
    for _ in range(reps):
        with TRACER.span("x", rows=1):
            pass
    per_call_s = (time.perf_counter() - start) / reps

    overhead_s = n_spans * per_call_s
    ratio = overhead_s / disabled_s
    print(f"smoke (tracing disabled):       {disabled_s * 1e3:.1f} ms")
    print(f"spans recorded when enabled:    {n_spans}")
    print(f"disabled span() no-op cost:     {per_call_s * 1e9:.0f} ns/call")
    print(
        f"worst-case disabled overhead:   {overhead_s * 1e6:.1f} us "
        f"({ratio * 100:.3f}% of wall time; budget {BUDGET * 100:.0f}%)"
    )
    report["disabled"] = {
        "smoke_s": round(disabled_s, 6),
        "n_spans": n_spans,
        "span_noop_ns": round(per_call_s * 1e9, 1),
        "overhead_ratio": round(ratio, 6),
    }
    if ratio >= BUDGET:
        print("FAIL: disabled-tracer overhead exceeds the budget")
        return False
    return True


@contextmanager
def telemetry_plane():
    """The whole enabled telemetry plane, live inside the block."""
    from repro.obs.server import start_telemetry_server, stop_telemetry_server

    METRICS.enable(clear=True)
    sink = open(os.devnull, "w", encoding="utf-8")
    LOG.enable(sink)
    SLOWLOG.enable(1e9)  # armed (mark/record run) but never capturing
    start_telemetry_server(port=0)
    try:
        yield
    finally:
        stop_telemetry_server()
        SLOWLOG.disable()
        LOG.disable()
        sink.close()
        METRICS.disable()
        METRICS.reset()


def _watched_execution() -> None:
    """What a modify pays the slow-query log: a query scope, a mark and
    a record under the threshold."""
    with LOG.query_scope():
        SLOWLOG.record(SLOWLOG.mark(), "modify", strategy="probe", rows=1000)


def _span() -> None:
    with TRACER.span("gate.probe", rows=1000):
        pass


#: Each telemetry primitive: the methods whose calls count as one use
#: of it, and one use to microbench.  The bill errs high: a log event's
#: own ``log.events`` update is also counted as a metric update, and
#: spans and slow-log marks run (as no-ops) with telemetry off too.
PRIMITIVES = {
    "metric_update": (
        ((Counter, "inc"), (Gauge, "set")),
        lambda: METRICS.counter("gate.probe").inc(),
    ),
    "histogram_observation": (
        ((Histogram, "observe"),),
        lambda: METRICS.histogram("gate.probe").observe(1000),
    ),
    "log_event": (
        ((StructuredLogger, "event"),),
        lambda: LOG.event("gate.probe", rows=1000, strategy="probe"),
    ),
    "slowlog_mark": (
        ((SlowQueryLog, "mark"),),
        _watched_execution,
    ),
    "span": (
        ((Tracer, "span"),),
        _span,
    ),
}

#: Calls per microbench batch, and batches (the minimum is kept).
COST_CALLS = 2_000
COST_BATCHES = 7


@contextmanager
def counting(counts: dict[str, int]):
    """Add each primitive's calls inside the block to ``counts``."""
    originals = []

    def counted(name, method):
        def call(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)

        return call

    for name, (methods, _probe) in PRIMITIVES.items():
        for cls, attr in methods:
            method = getattr(cls, attr)
            originals.append((cls, attr, method))
            setattr(cls, attr, counted(name, method))
    try:
        yield counts
    finally:
        for cls, attr, method in originals:
            setattr(cls, attr, method)


def primitive_costs() -> dict[str, float]:
    """Seconds per call of each primitive with the plane on."""
    costs = {}
    with telemetry_plane():
        for name, (_methods, probe) in PRIMITIVES.items():
            batches = []
            for _ in range(COST_BATCHES):
                start = time.perf_counter()
                for _ in range(COST_CALLS):
                    probe()
                batches.append((time.perf_counter() - start) / COST_CALLS)
            costs[name] = min(batches)
    return costs


def _sweep_with_telemetry(n_rows: int) -> float:
    """One sweep with the whole telemetry plane live, timed."""
    with telemetry_plane():
        return _timed(lambda: table1_sweep(n_rows))


def check_enabled(n_rows: int, report: dict) -> bool:
    """The enabled-path budget: the bill and the wall clock (above)."""
    TRACER.disable()
    TRACER.reset()
    METRICS.disable()
    METRICS.reset()
    off, on = [], []
    calls = dict.fromkeys(PRIMITIVES, 0)
    for _ in range(PAIRS):
        off.append(_timed(lambda: table1_sweep(n_rows)))
        with counting(calls):
            on.append(_sweep_with_telemetry(n_rows))
    off_s = min(off)
    wall_ratio = max(0.0, median(b / a for a, b in zip(off, on)) - 1.0)

    # The sweep is seeded, so every "on" sweep makes the same calls.
    counts = {name: calls[name] // PAIRS for name in PRIMITIVES}
    costs = primitive_costs()
    bill_s = sum(counts[name] * costs[name] for name in PRIMITIVES)
    bill_ratio = bill_s / off_s
    ratio = max(bill_ratio, wall_ratio)
    print(f"table1 sweep, telemetry off:    {off_s * 1e3:.1f} ms (min of {PAIRS})")
    for name in PRIMITIVES:
        print(
            f"  {name + ':':<24}{counts[name]:>7} calls x "
            f"{costs[name] * 1e9:>8.0f} ns"
        )
    print(
        f"enabled-telemetry bill:         {bill_s * 1e6:.1f} us "
        f"({bill_ratio * 100:.3f}% of the sweep)"
    )
    print(
        f"wall-clock on/off:              {wall_ratio * 100:.2f}% "
        f"(median of {PAIRS} pairs; budget {BUDGET * 100:.0f}% for both)"
    )
    report["enabled"] = {
        "pairs": PAIRS,
        "sweep_off_s": [round(t, 6) for t in off],
        "sweep_on_s": [round(t, 6) for t in on],
        "counts": counts,
        "cost_ns": {name: round(c * 1e9, 1) for name, c in costs.items()},
        "bill_s": round(bill_s, 9),
        "bill_ratio": round(bill_ratio, 6),
        "wall_clock_ratio": round(wall_ratio, 6),
        "overhead_ratio": round(ratio, 6),
    }
    if ratio >= BUDGET:
        print("FAIL: enabled-telemetry overhead exceeds the budget")
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the measured overheads as a JSON artifact",
    )
    parser.add_argument(
        "--log2-rows", type=int, default=14,
        help="rows per workload as a power of two (default 14)",
    )
    args = parser.parse_args(argv)
    n_rows = 1 << args.log2_rows

    report: dict = {"budget": BUDGET, "log2_rows": args.log2_rows}
    ok = check_disabled(n_rows, report)
    ok = check_enabled(n_rows, report) and ok
    report["ok"] = ok

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    print("OK" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
