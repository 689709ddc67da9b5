#!/usr/bin/env python3
"""Regression sentinel: did this PR make the measured claims worse?

The committed ``BENCH_fastpath.json`` artifact records the repo's
kernel-level performance trajectory; this sentinel checks a fresh run
against it, so a PR cannot silently halve the fast path's advantage.
(Cache, planner and serving performance are judged end to end by
``benchmarks/e2e/run.py`` + ``compare.py``, not here.)

* **fastpath** — a fresh reference-vs-fast sweep is compared per cell
  (matched by ``label``) against the committed record: each cell's
  *speedup* (a dimensionless ratio, far more host-portable than raw
  seconds) must stay within the noise band of the committed value, and
  so must the geomean.
* **overhead** (optional, ``--overhead FILE``) — consume the JSON that
  ``check_trace_overhead.py --json`` writes and require both telemetry
  budgets to hold.

Fresh records normally come from live runs at ``--log2-rows`` (smaller
than the committed artifacts' row counts — speedups grow with input
size, which is why the default noise bands are one-sided and generous:
the gate catches *collapses*, not flutter).  ``--fresh-fastpath FILE``
swaps the live run for a pre-computed record, which is how tests prove
the gate fires on a synthetically slowed record.

``--smoke`` selects the CI configuration: small inputs and wide bands.
Exit status is non-zero on any regression finding.

Run:  python benchmarks/check_regression.py --smoke
"""

from __future__ import annotations

import argparse
import json
import math
import sys

sys.path.insert(0, "src")

COMMITTED = "BENCH_fastpath.json"

#: Default one-sided noise bands: a fresh speedup may fall this far
#: (fractionally) below the committed one before the gate fires.  The
#: committed artifacts were measured at 2^16 rows; smoke runs are much
#: smaller and speedups shrink with input size, hence the generous
#: smoke band (calibrated so a healthy 2^13 run passes with margin
#: while a 2x collapse fails every cell).
NOISE = {"default": 0.25, "smoke": 0.60}
GEOMEAN_NOISE = {"default": 0.15, "smoke": 0.45}


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _geomean(values: list[float]) -> float:
    vals = [max(v, 1e-9) for v in values if v is not None]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def _below(fresh: float, committed: float, band: float) -> bool:
    return fresh < committed * (1.0 - band)


def compare_fastpath(
    committed: dict, fresh: dict, noise: float, geomean_noise: float
) -> list[str]:
    """Per-cell + geomean speedup comparison for the engine sweep."""
    problems: list[str] = []
    by_label = {c["label"]: c for c in committed["cells"]}
    fresh_speedups: list[float] = []
    for cell in fresh["cells"]:
        base = by_label.get(cell["label"])
        if base is None:
            continue  # new cell: nothing committed to regress against
        fresh_speedups.append(cell["speedup"])
        if _below(cell["speedup"], base["speedup"], noise):
            problems.append(
                f"fastpath cell {cell['label']!r}: speedup "
                f"{cell['speedup']}x fell below committed "
                f"{base['speedup']}x (noise band {noise:.0%})"
            )
    missing = set(by_label) - {c["label"] for c in fresh["cells"]}
    for label in sorted(missing):
        problems.append(f"fastpath cell {label!r}: missing from fresh run")
    fresh_geo = _geomean(fresh_speedups)
    if _below(fresh_geo, committed["geomean_speedup"], geomean_noise):
        problems.append(
            f"fastpath geomean: {fresh_geo:.2f}x fell below committed "
            f"{committed['geomean_speedup']}x "
            f"(noise band {geomean_noise:.0%})"
        )
    return problems


def check_overhead(report: dict) -> list[str]:
    """Gate on the overhead artifact check_trace_overhead.py wrote."""
    problems: list[str] = []
    budget = report.get("budget", 0.05)
    for side in ("disabled", "enabled"):
        ratio = report.get(side, {}).get("overhead_ratio")
        if ratio is None:
            problems.append(f"overhead: no {side!r} measurement in report")
        elif ratio >= budget:
            problems.append(
                f"overhead: {side} telemetry ratio {ratio:.4f} exceeds "
                f"budget {budget:.2f}"
            )
    if not report.get("ok", False):
        problems.append("overhead: report marked not ok")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI configuration: small inputs, wide noise bands",
    )
    parser.add_argument(
        "--log2-rows", type=int, default=None,
        help="rows for live fresh runs as a power of two"
        " (default: 13 with --smoke, else 14)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--noise", type=float, default=None,
        help="per-cell one-sided noise band as a fraction"
        f" (default {NOISE['default']}, smoke {NOISE['smoke']})",
    )
    parser.add_argument(
        "--geomean-noise", type=float, default=None,
        help="geomean noise band as a fraction"
        f" (default {GEOMEAN_NOISE['default']},"
        f" smoke {GEOMEAN_NOISE['smoke']})",
    )
    parser.add_argument(
        "--fresh-fastpath", metavar="FILE", default=None,
        help="use this record as the fresh fastpath run (skips the live"
        " sweep; how tests feed the gate a synthetic regression)",
    )
    parser.add_argument(
        "--overhead", metavar="FILE", default=None,
        help="also gate on a check_trace_overhead.py --json artifact",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the sentinel's findings as a JSON artifact",
    )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "default"
    noise = args.noise if args.noise is not None else NOISE[mode]
    geomean_noise = (
        args.geomean_noise
        if args.geomean_noise is not None
        else GEOMEAN_NOISE[mode]
    )
    log2_rows = args.log2_rows if args.log2_rows is not None else (
        13 if args.smoke else 14
    )
    n_rows = 1 << log2_rows

    problems: list[str] = []

    committed_fast = _load(COMMITTED)
    if args.fresh_fastpath:
        fresh_fast = _load(args.fresh_fastpath)
        print(f"fastpath: comparing {args.fresh_fastpath} (pre-computed)")
    else:
        print(f"fastpath: running fresh sweep at {n_rows:,} rows ...")
        from repro.bench.trajectory import run_trajectory

        fresh_fast = run_trajectory(n_rows, seed=args.seed)
    if not fresh_fast.get("fidelity_ok", True):
        problems.append("fastpath: fresh record reports fidelity failure")
    problems += compare_fastpath(
        committed_fast, fresh_fast, noise, geomean_noise
    )

    if args.overhead:
        problems += check_overhead(_load(args.overhead))

    report = {
        "mode": mode,
        "noise": noise,
        "geomean_noise": geomean_noise,
        "n_rows": n_rows,
        "problems": problems,
        "ok": not problems,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")

    for problem in problems:
        print(f"REGRESSION: {problem}")
    print("OK" if not problems else f"FAIL ({len(problems)} finding(s))")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
