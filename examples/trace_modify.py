#!/usr/bin/env python3
"""Trace a Table 1 order modification.

Runs case 5 of the paper's Table 1 — (A,B,C) -> (A,C,B), the canonical
shared-prefix modification — under the span tracer and metrics registry
from ``repro.obs``.

The script prints the span tree (inclusive and self time), the metrics
in Prometheus text format, and writes a Chrome trace-event artifact
loadable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

Run:  python examples/trace_modify.py
"""

from __future__ import annotations

import os
import tempfile

from repro import modify_sort_order
from repro import Schema, SortSpec
from repro.obs import METRICS, TRACER
from repro.obs.exporters import (
    prometheus_text,
    render_tree,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.workloads.generators import random_sorted_table


def main() -> None:
    # Table 1, case 5: rows sorted on (A, B, C), wanted on (A, C, B).
    # Every distinct A value opens an independent segment.
    schema = Schema.of("A", "B", "C", "D")
    n_rows = 1 << 14
    table = random_sorted_table(
        schema, SortSpec.of("A", "B", "C"), n_rows,
        domains=[32, 64, 256, 8], seed=0,
    )

    print(f"tracing case 5: A,B,C -> A,C,B over {n_rows:,} rows\n")
    TRACER.enable(clear=True)
    METRICS.enable(clear=True)
    modify_sort_order(table, SortSpec.of("A", "C", "B"))
    records = TRACER.drain()
    snapshot = METRICS.as_dict()
    TRACER.disable()
    METRICS.disable()
    METRICS.reset()

    print(f"{len(records)} spans recorded\n")
    print(render_tree(records, max_children=4))
    print()
    print(prometheus_text(snapshot))

    out = os.path.join(tempfile.gettempdir(), "repro_trace_modify.json")
    obj = write_chrome_trace(out, records, metrics=snapshot)
    problems = validate_chrome_trace(obj)
    assert not problems, problems
    print(f"chrome trace written to {out} — load it in ui.perfetto.dev")


if __name__ == "__main__":
    main()
