"""Prometheus exposition grammar: emit, escape, and round-trip check."""

from __future__ import annotations

from repro.obs import METRICS
from repro.obs.exporters import (
    prom_label_block,
    prometheus_text,
    validate_prometheus_text,
)


def _populated_registry():
    METRICS.enable(clear=True)
    METRICS.counter("cache.hits").inc(5)
    METRICS.counter("exec.spill.runs").inc()
    METRICS.gauge("exec.mem.used_bytes").set(4096)
    hist = METRICS.histogram("merge.fan_in")
    for v in (1, 2, 2, 8, 8, 8, 512):
        hist.observe(v)
    return METRICS


def test_every_family_has_help_and_type():
    text = prometheus_text(_populated_registry())
    for family in (
        "repro_cache_hits",
        "repro_exec_spill_runs",
        "repro_exec_mem_used_bytes",
        "repro_merge_fan_in",
    ):
        assert f"# HELP {family} " in text
        assert f"# TYPE {family} " in text


def test_gauge_high_water_mark_is_its_own_family():
    METRICS.enable(clear=True)
    g = METRICS.gauge("exec.mem.used_bytes")
    g.set(100)
    g.set(10)
    text = prometheus_text(METRICS)
    assert "# TYPE repro_exec_mem_used_bytes_max gauge" in text
    assert "repro_exec_mem_used_bytes_max 100" in text
    assert "repro_exec_mem_used_bytes 10" in text


def test_histogram_buckets_are_cumulative_and_end_at_inf():
    text = prometheus_text(_populated_registry())
    lines = [
        line for line in text.splitlines()
        if line.startswith("repro_merge_fan_in_bucket")
    ]
    counts = [float(line.rsplit(" ", 1)[1]) for line in lines]
    assert counts == sorted(counts)
    assert lines[-1].startswith('repro_merge_fan_in_bucket{le="+Inf"}')
    assert counts[-1] == 7

    # Fractional observations land in the bucket of their ceiling:
    # 1.5 is above le="1", 2.5 is above le="2".
    latency = METRICS.histogram("serve.latency_ms")
    for v in (0.3, 1.5, 2.5, 3.9, 1000.7):
        latency.observe(v)
    text = prometheus_text(METRICS)
    assert 'repro_serve_latency_ms_bucket{le="1"} 1' in text
    assert 'repro_serve_latency_ms_bucket{le="2"} 2' in text
    assert 'repro_serve_latency_ms_bucket{le="4"} 4' in text


def test_metric_names_are_sanitized_to_grammar():
    METRICS.enable(clear=True)
    METRICS.counter("weird name-with.dots/slash").inc()
    text = prometheus_text(METRICS)
    assert "repro_weird_name_with_dots_slash 1" in text
    assert validate_prometheus_text(text) == []


def test_label_values_are_escaped():
    block = prom_label_block({"le": 'say "hi"\nback\\slash', "2bad key": 1})
    assert '\\"hi\\"' in block
    assert "\\n" in block
    assert "\\\\slash" in block
    assert "_2bad_key=" in block


def test_round_trip_validates_clean():
    text = prometheus_text(_populated_registry())
    assert validate_prometheus_text(text) == []


def test_validator_catches_malformed_text():
    assert validate_prometheus_text("9bad_name 1\n")
    assert validate_prometheus_text("# TYPE x bogus_type\nx 1\n")
    assert validate_prometheus_text("no_type_line 1\n")
    assert validate_prometheus_text("# TYPE x counter\nx notanumber\n")
    bad_buckets = (
        "# TYPE h histogram\n"
        'h_bucket{le="2"} 5\n'
        'h_bucket{le="4"} 3\n'
        'h_bucket{le="+Inf"} 5\n'
        "h_sum 10\n"
        "h_count 5\n"
    )
    assert any(
        "non-cumulative" in e for e in validate_prometheus_text(bad_buckets)
    )


def test_empty_registry_renders_empty_and_validates():
    METRICS.enable(clear=True)
    text = prometheus_text(METRICS)
    assert validate_prometheus_text(text) == []
