"""Streaming order modification: memory bounded by the largest segment.

Section 3.5 allows materializing "one segment at a time"; this bench
quantifies it: peak buffered rows of :class:`StreamingModify` versus
the whole-input materialization, across segment counts, and the bound
``Sort(memory_capacity=)`` keeps when one segment is larger than it.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import format_table
from repro.core.modify import modify_sort_order
from repro.engine.modify_op import StreamingModify
from repro.engine.scans import TableScan
from repro.engine.sort_op import Sort
from repro.workloads.generators import fig11_output_spec, fig11_table

LIST_LEN = 4


def test_peak_memory_tracks_largest_segment(n_rows_small):
    rows_out = []
    for n_segments in (4, 64, 1024):
        table = fig11_table(n_rows_small, n_segments, list_len=LIST_LEN, seed=0)
        op = StreamingModify(TableScan(table), fig11_output_spec(LIST_LEN))
        n = sum(1 for _ in op)
        assert n == len(table)
        rows_out.append(
            {
                "segments": n_segments,
                "peak_rows_buffered": op.peak_segment_rows,
                "input_rows": len(table),
                "fraction": round(op.peak_segment_rows / len(table), 4),
            }
        )
    print()
    print(
        format_table(
            rows_out,
            "Streaming modification: peak buffered rows vs input size",
        )
    )
    for cells in rows_out:
        # Peak equals the largest segment (within divmod slack).
        expected = cells["input_rows"] // cells["segments"]
        assert cells["peak_rows_buffered"] <= expected + cells["segments"]
    # More segments -> less memory, linearly.
    assert rows_out[-1]["peak_rows_buffered"] * 100 < rows_out[0]["peak_rows_buffered"] * 2


def test_peak_memory_bounded_by_capacity(n_rows_small):
    """Four segments, each 16 times the capacity, whose pre-existing
    runs (the square root of a segment's size) outnumber the fan-in:
    every segment merges through storage, and no more than the capacity
    is ever held."""
    table = fig11_table(n_rows_small, 4, list_len=LIST_LEN, seed=0)
    spec = fig11_output_spec(LIST_LEN)
    capacity, fan_in = n_rows_small // 64, 4
    op = Sort(TableScan(table), spec, memory_capacity=capacity, fan_in=fan_in)
    result = op.to_table()
    cells = {
        "segments": 4,
        "capacity": capacity,
        "fan_in": fan_in,
        "peak_rows_held": op.peak_segment_rows,
        "input_rows": len(table),
        "pages_written": op.pages.stats.pages_written,
    }
    print()
    print(format_table([cells], "Bounded modification: peak held rows vs capacity"))
    assert cells["peak_rows_held"] <= capacity
    assert cells["pages_written"] > 0
    assert result.rows == modify_sort_order(table, spec).rows


@pytest.mark.parametrize("mode", ["streaming", "materializing"])
def test_streaming_runtime(benchmark, n_rows_small, mode):
    table = fig11_table(n_rows_small, 64, list_len=LIST_LEN, seed=0)
    spec = fig11_output_spec(LIST_LEN)
    benchmark.group = "streaming vs materializing modification"
    if mode == "streaming":
        out = benchmark(
            lambda: sum(1 for _ in StreamingModify(TableScan(table), spec))
        )
        assert out == len(table)
    else:
        result = benchmark(modify_sort_order, table, spec)
        assert len(result) == len(table)
