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
must stay under 5% on a full Table 1 sweep: the sweep is timed in
``PAIRS`` interleaved off/on pairs, and the minimum of the "on" side
over the minimum of the "off" side must hold the budget.  Interleaving
keeps host drift out of the ratio: timing every "off" sweep before
every "on" sweep reads a slowdown between the two blocks as overhead.
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

sys.path.insert(0, "src")

from repro.core.modify import modify_sort_order  # noqa: E402
from repro.exec import ExecutionConfig  # noqa: E402
from repro.model import Schema, SortSpec  # noqa: E402
from repro.obs import LOG, METRICS, SLOWLOG, TRACER  # noqa: E402
from repro.workloads.generators import random_sorted_table  # noqa: E402

BUDGET = 0.05

#: Interleaved telemetry off/on sweep pairs the enabled-path check times.
PAIRS = 5

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


def _sweep_with_telemetry(n_rows: int) -> float:
    """One sweep with the whole telemetry plane live, timed."""
    from repro.obs.server import start_telemetry_server, stop_telemetry_server

    METRICS.enable(clear=True)
    sink = open(os.devnull, "w", encoding="utf-8")
    LOG.enable(sink)
    SLOWLOG.enable(1e9)  # armed (mark/record run) but never capturing
    start_telemetry_server(port=0)
    try:
        return _timed(lambda: table1_sweep(n_rows))
    finally:
        stop_telemetry_server()
        SLOWLOG.disable()
        LOG.disable()
        sink.close()
        METRICS.disable()
        METRICS.reset()


def check_enabled(n_rows: int, report: dict) -> bool:
    """The measured enabled-path budget: full Table 1 sweep, off vs on,
    in interleaved pairs."""
    TRACER.disable()
    TRACER.reset()
    METRICS.disable()
    METRICS.reset()
    off, on = [], []
    for _ in range(PAIRS):
        off.append(_timed(lambda: table1_sweep(n_rows)))
        on.append(_sweep_with_telemetry(n_rows))
    off_s, on_s = min(off), min(on)

    ratio = max(0.0, on_s / off_s - 1.0)
    print(f"table1 sweep, telemetry off:    {off_s * 1e3:.1f} ms (min of {PAIRS})")
    print(f"table1 sweep, telemetry on:     {on_s * 1e3:.1f} ms (min of {PAIRS})")
    print(
        f"enabled-telemetry overhead:     {ratio * 100:.2f}% "
        f"(budget {BUDGET * 100:.0f}%)"
    )
    report["enabled"] = {
        "pairs": PAIRS,
        "sweep_off_s": round(off_s, 6),
        "sweep_on_s": round(on_s, 6),
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
