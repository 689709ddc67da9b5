"""Compare two sets of benchmark runs, metric by metric, workload by workload.

    python3 benchmarks/e2e/compare.py A/results.json B/results.json

Each file is what ``run.py --out DIR --runs N`` wrote (N >= 3 gives
quartiles worth reading).  For every end-to-end metric on every workload
the verdict follows from the bound fixed in BENCHMARK.json:

* ``regressed`` / ``improved`` -- B's median is worse / better than A's
  by more than the bound;
* ``unchanged`` -- it is not, and both sets repeat within the bound;
* ``unresolved`` -- the spread between a set's own runs (quartile
  distance over median) is wider than the bound, so the medians prove
  nothing -- unless every run of one side beats every run of the other,
  which settles it whatever the spread.

Any run that reported a failed operation makes its side ``FAILED``.
Exit code 1 if anything regressed or failed.  With the same commit on
both sides this is the A/A check: everything should read ``unchanged``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import harness


def load(path: str) -> dict:
    """``workload -> {"values": metric -> [one value per run], "failed": n}``
    from the end-to-end (untraced) runs in a results file."""
    out: dict = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["meta"]["trace"]:
            continue
        side = out.setdefault(run["meta"]["workload"],
                              {"values": {}, "failed": 0})
        side["failed"] += run["failed"] + (not run["correct"])
        for name, metric in run["metrics"].items():
            side["values"].setdefault(name, []).append(metric["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - a) > 0: B worse
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    spread = max((a3 - a1) / abs(am), (b3 - b1) / abs(bm))
    # Every run of one side beats every run of the other?
    separated = min(b) > max(a) or min(a) > max(b)
    if spread > bound and not separated:
        return "unresolved"
    worse = sign * (bm - am) / abs(am)
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    side_a, side_b = load(argv[0]), load(argv[1])
    metrics = harness.load_contract()["end_to_end"]
    status = 0
    print(f"{'workload':14s} {'metric':16s} {'A median [q1, q3]':>38s} "
          f"{'B median [q1, q3]':>38s} {'B vs A':>8s}  verdict")
    for workload in side_a:
        if workload not in side_b:
            continue
        for side, runs in (("A", side_a), ("B", side_b)):
            if runs[workload]["failed"]:
                print(f"{workload:14s} FAILED: side {side} reported "
                      f"{runs[workload]['failed']} failed operations")
                status = 1
        for metric in metrics:
            name = metric["name"]
            a = side_a[workload]["values"][name]
            b = side_b[workload]["values"][name]
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            result = verdict(a, b, metric["better"], metric["bound"])
            if result == "regressed":
                status = 1
            print(f"{workload:14s} {name:16s} "
                  f"{am:14.4g} [{a1:9.4g}, {a3:9.4g}] "
                  f"{bm:14.4g} [{b1:9.4g}, {b3:9.4g}] "
                  f"{(bm - am) / abs(am):+8.1%}  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main())
