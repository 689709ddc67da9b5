#!/usr/bin/env python3
"""Figure 3 live: segmented sorting from key A to key A,B.

An input sorted only on its first column is extended to a two-column
order by sorting each A-segment independently — boundaries come from
the offset-value codes, never from comparing A values, and each
segment sort enters with codes that skip the constant prefix.

The memory story (hypothesis 1) is shown with the streaming operator —
peak buffered rows equal the largest segment, not the input — and with
a capacity-bounded ``Sort``: segments that fit share memory loads and
never spill, while under a capacity below the segments each one spills
and no more than the capacity is ever held.

Run:  python examples/segmented_sort.py
"""

from __future__ import annotations

import random

from repro.core.classify import split_segments
from repro import modify_sort_order
from repro import Sort, StreamingModify
from repro.engine.scans import TableScan
from repro import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs
from repro import ComparisonStats


def main() -> None:
    rng = random.Random(13)
    schema = Schema.of("A", "B")
    n_rows = 120_000
    rows = sorted(
        ((rng.randrange(300), rng.randrange(1 << 20)) for _ in range(n_rows)),
        key=lambda r: r[0],
    )
    table = Table(schema, rows, SortSpec.of("A"), derive_ovcs(rows, (0,)))

    segments = list(split_segments(table.ovcs, 1))
    largest = max(hi - lo for lo, hi in segments)
    print(
        f"input: {n_rows:,} rows sorted on A only; "
        f"{len(segments)} segments, largest {largest:,} rows"
    )

    # Figure 3's per-segment sort, with and without codes.
    for use_ovc in (True, False):
        stats = ComparisonStats()
        result = modify_sort_order(
            table, SortSpec.of("A", "B"), method="segment_sort",
            use_ovc=use_ovc, stats=stats,
        )
        assert result.is_sorted()
        label = "with codes" if use_ovc else "without codes"
        print(
            f"segmented sort {label:>14}: {stats.row_comparisons:>9,} row cmp, "
            f"{stats.column_comparisons:>9,} column cmp"
        )

    # Streaming execution: memory bounded by the largest segment.
    op = StreamingModify(TableScan(table), SortSpec.of("A", "B"))
    n_out = sum(1 for _ in op)
    assert n_out == n_rows
    print(
        f"streaming execution buffered at most {op.peak_segment_rows:,} rows "
        f"({op.peak_segment_rows / n_rows:.1%} of the input) — hypothesis 1's "
        f"'external sort becomes internal sorts'"
    )

    # The same loop under a sort-memory bound, above and below the
    # largest segment.
    for capacity in (2 * largest, largest // 4):
        op = Sort(
            TableScan(table), SortSpec.of("A", "B"), memory_capacity=capacity
        )
        assert op.to_table().is_sorted()
        print(
            f"Sort(memory_capacity={capacity:,}): held at most "
            f"{op.peak_segment_rows:,} rows, wrote "
            f"{op.pages.stats.pages_written:,} pages "
            f"[{op.order_strategy}]"
        )


if __name__ == "__main__":
    main()
