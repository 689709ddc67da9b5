"""Exporters: JSONL round-trip, Prometheus, tree."""

from __future__ import annotations

from repro.obs import MetricsRegistry, Tracer
from repro.obs.exporters import (
    prometheus_text,
    read_jsonl,
    render_tree,
    write_jsonl,
)


def _spans() -> list[dict]:
    tracer = Tracer()
    tracer.enable()
    with tracer.span("modify", rows=100):
        with tracer.span("segment.sort", rows=40):
            pass
        with tracer.span("segment.sort", rows=60):
            pass
    return tracer.drain()


def _metrics() -> dict:
    reg = MetricsRegistry()
    reg.counter("merge.degraded_merges").inc(2)
    reg.gauge("serve.queue_depth").set(3)
    for v in (1, 2, 16):
        reg.histogram("merge.fan_in").observe(v)
    return reg.as_dict()


def test_jsonl_round_trip_preserves_spans_metrics_meta(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    spans, metrics = _spans(), _metrics()
    write_jsonl(path, spans, metrics=metrics, meta={"case": 5})
    got_spans, got_metrics, got_meta = read_jsonl(path)
    assert got_spans == spans
    assert got_metrics == metrics
    assert got_meta == {"case": 5}


def test_prometheus_text_format():
    text = prometheus_text(_metrics())
    assert "# TYPE repro_merge_degraded_merges counter" in text
    assert "repro_merge_degraded_merges 2" in text
    assert "repro_serve_queue_depth_max 3" in text
    # Cumulative power-of-two buckets: le=2 covers the 1 and 2 observations.
    assert 'repro_merge_fan_in_bucket{le="2"} 2' in text
    assert 'repro_merge_fan_in_bucket{le="+Inf"} 3' in text
    assert "repro_merge_fan_in_count 3" in text


def test_render_tree_shows_nesting_and_self_time():
    text = render_tree(_spans())
    lines = text.splitlines()
    assert lines[0].startswith("modify")
    assert "(self " in lines[0]  # inclusive and self time on parents
    assert lines[1].startswith("  segment.sort")
    assert "rows=40" in lines[1] and "rows=60" in lines[2]
    assert render_tree([]) == "(no spans recorded)"


def test_render_tree_elides_very_wide_fanouts():
    tracer = Tracer()
    tracer.enable()
    with tracer.span("parent"):
        for i in range(70):
            with tracer.span("kid", i=i):
                pass
    text = render_tree(tracer.drain(), max_children=64)
    assert "... 6 more spans" in text
