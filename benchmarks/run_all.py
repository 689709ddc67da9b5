"""Bench trajectory: ``python benchmarks/run_all.py``.

Runs the Figure 10 / Figure 11 cells with both engines, checks
bit-identical output, and writes the JSON artifact (default
``BENCH_fastpath.json`` at the repo root) — equivalent to
``python -m repro bench --json``.  Exits non-zero if any cell's
fidelity check (bit-identical rows and codes) fails.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py                 # 2^16 rows
    PYTHONPATH=src python benchmarks/run_all.py --log2-rows 12
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.harness import format_table  # noqa: E402
from repro.bench.trajectory import run_trajectory, write_trajectory  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_fastpath.json"
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--log2-rows", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)

    record = run_trajectory(
        1 << args.log2_rows, seed=args.seed, repeats=args.repeats
    )
    output = args.output or DEFAULT_OUTPUT
    write_trajectory(output, record)
    print(
        format_table(
            record["cells"],
            f"reference vs fast, {record['n_rows']:,} rows "
            f"(min speedup {record['min_speedup']}x, "
            f"geomean {record['geomean_speedup']}x)",
        )
    )
    print(f"\nwrote {os.path.abspath(output)}")
    if not record["fidelity_ok"]:
        print("FIDELITY FAILURE: fast engine diverged from reference")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
