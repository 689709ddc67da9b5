"""End-to-end benchmark of the order-modification stack.

One workload, as the benchmark driver runs it (last stdout line is the
result object; ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
the per-layer ones)::

    python3 benchmarks/e2e/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Everything, for people (five workloads, each in its own subprocess, end
to end and then traced; writes ``DIR/results.json`` and
``DIR/trace.jsonl``)::

    python3 benchmarks/e2e/run.py --seed 1 --out DIR [--runs 3]

See README.md beside this file for the catalogue of metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
from functools import partial
from pathlib import Path
from statistics import median

import harness

#: Set-up passes per end-to-end run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Operations replayed by one uncontended client after a traced run.
REPLAY_OPS = 48

#: Per-run record files a ``--out`` directory collects.
RECORDS = "*.trace[01].seed*.json"

#: Monotone public counters reported as timed-phase deltas.
_CACHE_COUNTS = ("hits", "misses", "installs", "evictions", "spills",
                 "rehydrates")
_SERVE_COUNTS = ("requests", "executions", "coalesced", "planned",
                 "planned_batches", "rejected", "deadline_exceeded")


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.ROOT, timeout=10,
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _layer_counts(before: dict, after: dict) -> dict:
    """Timed-phase deltas of the public cache/service counters (zero for
    a layer the workload never instantiated)."""
    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    out = {f"cache.{k}": delta(f"cache.{k}") for k in _CACHE_COUNTS}
    out.update({f"serve.{k}": delta(f"serve.{k}") for k in _SERVE_COUNTS})
    lookups = out["cache.hits"] + out["cache.misses"]
    out["cache.hit_ratio"] = out["cache.hits"] / lookups if lookups else 0.0
    out["cache.bytes_resident_mb"] = after.get("cache.bytes_resident", 0) / 2**20
    out["serve.executions_per_request"] = (
        out["serve.executions"] / out["serve.requests"]
        if out["serve.requests"] else 0.0)
    return out


def _replay(wl, state, probe: harness.HostProbe,
            spans: harness.SpanLog) -> tuple[list[float], int, int]:
    """Queue (and GIL) wait is the contended p50 minus the same requests
    issued by one client with nothing else running: replay the head of
    client 0's schedule alone.  Returns the replayed latencies (ms at
    nominal speed; none without a service), attempted and failed."""
    latencies: list[float] = []
    attempted = failed = 0
    if state.service is None:
        return latencies, attempted, failed
    rounds = harness.run_rounds(
        probe, [state.schedules[0][:REPLAY_OPS // wl.ops_per_entry]],
        partial(wl.client, state), wl.round_ops)
    for rnd in rounds:
        log = rnd.logs[0]
        attempted += log.attempted
        failed += log.failed
        for cls, start, end in log.ops:
            spans.add(f"replay/{len(latencies)}", cls, "client", "replay",
                      start, end)
            latencies.append((end - start) * 1000.0 / rnd.factor)
    return latencies, attempted, failed


def run_workload(args) -> int:
    """One workload in this process; prints the result object last."""
    probe = harness.HostProbe()
    harness.bootstrap()
    try:
        return _run_workload(args, probe)
    finally:
        harness.cleanup()


def _import(trace: bool):
    from workloads import WORKLOADS

    if trace:
        import layers
    else:
        layers = None
    return WORKLOADS, layers


def _run_workload(args, probe: harness.HostProbe) -> int:
    trace = bool(args.trace)
    (workloads, layers), import_s, import_raw = probe.timed(
        partial(_import, trace))

    wl = workloads[args.workload]
    log2_rows = args.log2_rows or wl.log2_rows
    n_rows = 1 << log2_rows
    n_ops = wl.n_ops(args.seconds)

    # Set up several times and keep the last: one pass is too noisy to
    # gate on, and the median of three is what setup_s reports.
    setups, setups_raw = [], []
    repeats = 1 if trace else SETUP_REPEATS
    for i in range(repeats):
        state, nominal, raw = probe.timed(
            partial(wl.setup, args.seed, n_rows, n_ops))
        setups.append(nominal)
        setups_raw.append(raw)
        if i < repeats - 1:
            wl.teardown(state)
            del state
    wl.oracle(state)
    gc.collect()
    gc.freeze()  # set-up garbage must not be re-scanned while timing

    before = wl.counters(state)
    rounds = harness.run_rounds(
        probe, state.schedules, partial(wl.client, state), wl.round_ops)
    after = wl.counters(state)

    logs = [log for rnd in rounds for log in rnd.logs]
    raw_ms = [(end - start) * 1000.0 for log in logs for _, start, end in log.ops]
    latencies = [(end - start) * 1000.0 / rnd.factor
                 for rnd in rounds for log in rnd.logs
                 for _, start, end in log.ops]
    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    for log in logs:
        for err in log.errors:
            print(f"FAILED {err}", file=sys.stderr)
    if not latencies:
        print("no operation succeeded", file=sys.stderr)
        wl.teardown(state)
        return 1
    p50 = harness.percentile(latencies, 50)
    wall = sum(rnd.wall for rnd in rounds)
    rows = sum(log.rows for log in logs)

    if not trace:
        metrics = {
            "setup_s": import_s + median(setups),
            "latency_p50_ms": p50,
            "latency_p95_ms": harness.percentile(latencies, 95),
            "rows_per_s": rows / sum(rnd.wall / rnd.factor for rnd in rounds),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wl.teardown(state)
    else:
        spans = harness.SpanLog(wl.name)
        i = 0
        for rnd in rounds:
            for c, log in enumerate(rnd.logs):
                for cls, start, end in log.ops:
                    spans.add(f"client{c}/{i}", cls, "client", "request",
                              start, end)
                    i += 1
        metrics = _layer_counts(before, after)
        solo, replayed, replay_failed = _replay(wl, state, probe, spans)
        attempted += replayed
        failed += replay_failed
        metrics["serve.queue_wait_ms"] = (
            p50 - median(solo) if solo else 0.0)
        wl.teardown(state)

        probe_rows = 1 << (args.log2_rows or layers.PROBE_LOG2_ROWS)
        metrics.update(
            layers.layer_pass(wl.name, args.seed, probe_rows, spans, probe))
        # The floor at the workload's own size, for the one ratio every
        # speed-up is quoted against.
        own = layers.floor_sorted_ms(wl.name, args.seed, n_rows, spans, probe)
        metrics["floor.p50_over_sorted"] = p50 / own
        if args.out:
            spans.write(Path(args.out) / "trace.jsonl")

    units = {m["name"]: m["unit"]
             for m in args.contract["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"metric names differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1

    meta = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": int(trace), "log2_rows": log2_rows, "operations": n_ops,
        "samples": len(latencies), "clients": wl.clients,
        "timed_phase_s": wall, "rows": rows,
        "raw": {"latency_p50_ms": harness.percentile(raw_ms, 50),
                "latency_p95_ms": harness.percentile(raw_ms, 95),
                "rows_per_s": rows / wall, "import_s": import_raw,
                "setup_passes_s": setups_raw},
        "host_factor": {"median": median(probe.samples),
                        "min": min(probe.samples), "max": max(probe.samples)},
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
    }
    print(f"# {wl.name} seed={args.seed} rows=2^{log2_rows} "
          f"operations={n_ops} samples={len(latencies)} "
          f"timed_phase={wall:.2f}s host_factor="
          f"{meta['host_factor']['median']:.2f} (timings below are at "
          f"nominal host speed; raw p50 {meta['raw']['latency_p50_ms']:.2f} ms)")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.4f} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    if args.out:
        record = dict(result, meta=meta)
        path = Path(args.out) / f"{wl.name}.trace{int(trace)}.seed{args.seed}.json"
        path.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in its own subprocess (own peak RSS, own
    process-wide cache): ``--runs`` end-to-end passes, then one traced."""
    out = Path(args.out)
    for stale in out.glob(RECORDS):
        stale.unlink()
    (out / "trace.jsonl").write_text("")
    status = 0
    passes = [(0, args.seed + i) for i in range(args.runs)] + [(1, args.seed)]
    for workload in args.contract["workloads"]:
        name = workload["name"]
        for trace, seed in passes:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--out", str(out)]
            if args.log2_rows:
                cmd += ["--log2-rows", str(args.log2_rows)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            # The child's last line is for the driver; people get the rest.
            print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
            if proc.returncode != 0:
                print(f"{name} (trace {trace}, seed {seed}) failed",
                      file=sys.stderr)
                status = 1
    records = [json.loads(p.read_text()) for p in sorted(out.glob(RECORDS))]
    (out / "results.json").write_text(json.dumps({"runs": records}, indent=1))
    print(f"wrote {out / 'results.json'} and {out / 'trace.jsonl'}")
    return status


def main(argv=None) -> int:
    contract = harness.load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run this one workload in-process "
                             "(default: all, each in a subprocess)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase at the seed commit "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for results.json/trace.jsonl")
    parser.add_argument("--runs", type=int, default=1,
                        help="end-to-end passes per workload (all-workload mode)")
    parser.add_argument("--log2-rows", type=int, default=None,
                        help="override every input size (smoke tests)")
    args = parser.parse_args(argv)
    args.contract = contract
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    if args.workload:
        return run_workload(args)
    if not args.out:
        parser.error("--out DIR is required when running every workload")
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
