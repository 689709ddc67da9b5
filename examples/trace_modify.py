#!/usr/bin/env python3
"""Trace a Table 1 order modification.

Runs case 5 of the paper's Table 1 — (A,B,C) -> (A,C,B), the canonical
shared-prefix modification — under the span tracer and metrics registry
from ``repro.obs``.

The script writes the spans and metrics as a JSON-lines artifact, reads
it back, and prints the span tree (inclusive and self time) and the
metrics in Prometheus text format.

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
    read_jsonl,
    render_tree,
    write_jsonl,
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

    out = os.path.join(tempfile.gettempdir(), "repro_trace_modify.jsonl")
    write_jsonl(out, records, metrics=snapshot, meta={"case": 5})
    spans, metrics, _meta = read_jsonl(out)
    print(f"{len(spans)} spans written to {out} (JSON-lines)\n")
    print(render_tree(spans, max_children=4))
    print()
    print(prometheus_text(metrics))

if __name__ == "__main__":
    main()
