#!/usr/bin/env python3
"""Resource-governed order modification: budgets and spills.

One :class:`repro.exec.ExecutionConfig` carries every execution knob —
engine, memory budget, spill directory.  This demo runs the same
Table 1 modification two ways:

1. ungoverned (the baseline);
2. under a deliberately tiny memory budget, so the governed output
   sink spills completed segments to disk and reloads them in order —
   the result is bit-identical, rows *and* codes, because governance
   only moves completed buffers around and never touches a comparison.

Run:  python examples/resource_governance.py
"""

from __future__ import annotations

from repro import modify_sort_order
from repro import ExecutionConfig
from repro import Schema, SortSpec
from repro.obs import METRICS
from repro import ComparisonStats
from repro.workloads.generators import random_sorted_table


def main() -> None:
    schema = Schema.of("A", "B", "C", "D")
    n_rows = 1 << 13
    table = random_sorted_table(
        schema, SortSpec.of("A", "B", "C"), n_rows,
        domains=[32, 64, 256, 8], seed=7,
    )
    spec = SortSpec.of("A", "C", "B")

    # 1. Ungoverned baseline.
    base_stats = ComparisonStats()
    baseline = modify_sort_order(table, spec, stats=base_stats)

    # 2. A 64 KiB budget on an input far larger than that: the governed
    # sink must spill completed segments to disk, then reload them in
    # output order at the end.
    METRICS.enable(clear=True)
    gov_stats = ComparisonStats()
    cfg = ExecutionConfig.from_env().with_(memory_budget=64 * 1024)
    governed = modify_sort_order(table, spec, stats=gov_stats, config=cfg)
    snapshot = METRICS.as_dict()
    METRICS.disable()
    METRICS.reset()

    assert governed.rows == baseline.rows
    assert governed.ovcs == baseline.ovcs
    assert gov_stats.as_dict() == base_stats.as_dict()
    spills = snapshot.get("counters", {}).get("exec.spill.runs", 0)
    print(f"budget 64 KiB over {n_rows:,} rows: {spills} spills,")
    print("  rows, codes, and comparison counts identical to ungoverned run")


if __name__ == "__main__":
    main()
