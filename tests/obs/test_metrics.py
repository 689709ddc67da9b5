"""Metrics registry: instruments, snapshots, cross-process merging."""

from __future__ import annotations

from repro.obs import METRICS, MetricsRegistry
from repro.exec import ExecutionConfig
from repro.ovc.stats import ComparisonStats


def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.counter("c").inc(2.5)
    assert reg.counter("c").value == 3.5

    g = reg.gauge("depth")
    g.set(4)
    g.set(2)
    g.add(1)
    assert g.value == 3 and g.max == 4

    h = reg.histogram("sizes")
    for v in (1, 2, 3, 1024):
        h.observe(v)
    assert h.count == 4 and h.total == 1030
    assert h.min == 1 and h.max == 1024
    assert h.mean == 1030 / 4
    # power-of-two buckets: 1 -> 0, 2 -> 1, 3 -> 2, 1024 -> 10
    assert h.buckets == {0: 1, 1: 1, 2: 1, 10: 1}


def test_absorb_stats_publishes_comparison_counters():
    reg = MetricsRegistry()
    stats = ComparisonStats()
    stats.column_comparisons = 11
    stats.ovc_comparisons = 7
    reg.absorb_stats(stats)
    snap = reg.as_dict()
    assert snap["counters"]["comparisons.column_comparisons"] == 11
    assert snap["counters"]["comparisons.ovc_comparisons"] == 7


def test_pipeline_records_segment_and_merge_metrics():
    from repro.core.modify import modify_sort_order
    from repro.model import Schema, SortSpec
    from repro.workloads.generators import random_sorted_table

    schema = Schema.of("A", "B", "C")
    table = random_sorted_table(
        schema, SortSpec.of("A", "B", "C"), 512, domains=[8, 4, 4], seed=1
    )
    METRICS.enable(clear=True)
    modify_sort_order(
        table, SortSpec.of("A", "C", "B"),
        config=ExecutionConfig(engine="reference"),
    )
    snap = METRICS.as_dict()
    seg = snap["histograms"]["modify.segment_rows"]
    assert seg["count"] >= 1
    assert seg["sum"] == 512  # every row is in exactly one segment


def test_disabled_registry_still_hands_out_instruments():
    reg = MetricsRegistry()
    assert not reg.enabled
    reg.counter("x").inc()  # call sites gate on .enabled themselves
    assert reg.counter("x").value == 1
