"""Structured logging: JSON-lines shape, correlation, and wiring."""

from __future__ import annotations

import io
import json

from repro.core.modify import modify_sort_order
from repro.engine.scans import TableScan
from repro.engine.sort_op import Sort
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.obs import LOG, METRICS, SLOWLOG, TRACER
from repro.obs.logging import read_log
from repro.query import Query
from repro.workloads.generators import random_sorted_table

SCHEMA = Schema.of("A", "B", "C")


def _table(n_rows=300, seed=0):
    return random_sorted_table(
        SCHEMA, SortSpec.of("A", "B"), n_rows, domains=[8, 16, 32], seed=seed
    )


def test_disabled_logger_emits_nothing(tmp_path):
    path = tmp_path / "log.jsonl"
    LOG.event("never", value=1)
    assert not path.exists()
    assert LOG.path is None


def test_events_are_json_lines_with_envelope(tmp_path):
    path = str(tmp_path / "log.jsonl")
    LOG.enable(path)
    LOG.event("unit.test", answer=42, name="x")
    LOG.disable()
    events = read_log(path)
    assert len(events) == 1
    (ev,) = events
    assert ev["event"] == "unit.test"
    assert ev["answer"] == 42
    assert ev["name"] == "x"
    assert ev["pid"] > 0
    assert ev["ts"] > 0


def test_non_json_values_are_stringified():
    sink = io.StringIO()
    LOG.enable(sink)
    LOG.event("unit.test", spec=SortSpec.of("A", "B"))
    LOG.disable()
    ev = json.loads(sink.getvalue())
    assert isinstance(ev["spec"], str)


def test_stream_target_is_not_closed_on_disable():
    sink = io.StringIO()
    LOG.enable(sink)
    LOG.event("one")
    LOG.disable()
    assert not sink.closed
    assert json.loads(sink.getvalue())["event"] == "one"


def test_broken_sink_disables_logger_instead_of_raising():
    sink = io.StringIO()
    LOG.enable(sink)
    sink.close()
    LOG.event("after.close")  # must not raise
    assert LOG.enabled is False


def test_query_scope_allocates_and_nests():
    sink = io.StringIO()
    LOG.enable(sink)
    assert LOG.current_query_id() is None
    with LOG.query_scope() as outer:
        assert outer is not None
        assert LOG.current_query_id() == outer
        with LOG.query_scope() as inner:
            assert inner == outer
    assert LOG.current_query_id() is None
    with LOG.query_scope() as second:
        assert second != outer
    LOG.disable()


def test_query_scope_is_noop_while_disabled():
    with LOG.query_scope() as qid:
        assert qid is None
    assert LOG.current_query_id() is None


def test_event_carries_qid_and_span():
    sink = io.StringIO()
    LOG.enable(sink)
    TRACER.enable(clear=True)
    with LOG.query_scope() as qid:
        with TRACER.span("outer"):
            LOG.event("inside")
    TRACER.disable()
    LOG.disable()
    ev = json.loads(sink.getvalue().splitlines()[-1])
    assert ev["qid"] == qid
    assert ev["span_name"] == "outer"
    assert "span" in ev


def test_modify_logs_strategy_decision(tmp_path):
    path = str(tmp_path / "log.jsonl")
    LOG.enable(path)
    modify_sort_order(_table(), SortSpec.of("A"))
    LOG.disable()
    events = [e for e in read_log(path) if e["event"] == "modify.strategy"]
    assert len(events) == 1
    (ev,) = events
    assert ev["strategy"] in (
        "noop", "segment_sort", "merge_runs", "combined", "full_sort"
    )
    assert ev["rows"] == 300
    assert "qid" in ev


def _ran(engine, table):
    """What the telemetry says ran for ``Sort(table, A,C,B)``: the
    modify span's attrs, both decision events, both slow-log entries."""
    sink = io.StringIO()
    LOG.enable(sink)
    TRACER.enable(clear=True)
    SLOWLOG.enable(0)
    Sort(
        TableScan(table), SortSpec.of("A", "C", "B"),
        config=ExecutionConfig(engine=engine),
    ).to_table()
    LOG.disable()
    events = {e["event"]: e for e in map(json.loads, sink.getvalue().splitlines())}
    (span,) = [r for r in TRACER.drain() if r["name"] == "modify"]
    entries = {e["kind"]: e for e in SLOWLOG.entries}
    return [
        span["attrs"], events["modify.strategy"], events["sort.executed"],
        entries["modify"], entries["sort"],
    ]


def test_telemetry_reports_the_engine_that_ran_not_the_configured_one():
    for record in _ran("auto", _table()):
        assert record["engine"] == "fast" and record["fallback"] is False
    for record in _ran("reference", _table()):
        assert record["engine"] == "reference" and record["fallback"] is False


def test_telemetry_flags_the_auto_fallback_to_reference():
    # C is a str in segment A=0 and an int in A=1: the packed codec
    # cannot rank the column, so engine="auto" runs the reference path.
    rows = [(0, b, f"c{b % 3}") for b in range(9)]
    rows += [(1, b, b % 3) for b in range(9)]
    table = Table(SCHEMA, rows, SortSpec.of("A", "B", "C")).with_ovcs()
    for record in _ran("auto", table):
        assert record["engine"] == "reference" and record["fallback"] is True


def _mixed_within_segments():
    """Sorted on A; C is a str except in one pair tied on B, so sorting
    on A,B,C compares C values only within that int pair."""
    rows = []
    for a in range(2):
        segment = [(a, b, f"c{b}") for b in range(9)]
        segment[6:8] = [(a, 6, 2), (a, 6, 1)]
        rows += segment[::-1]
    return Table(SCHEMA, rows, SortSpec.of("A")).with_ovcs()


def test_external_modify_reports_engine_and_fallback():
    """``Sort(memory_capacity=)`` over an ordered child names the engine
    that ran its segments — in memory, or each oversized one's external
    sort — on the ``modify.strategy`` and ``sort.executed`` events, as
    ``modify_sort_order`` does, and every ``modify.bind`` / ``modify.spill``
    span names the engine of its own executor."""
    rows = [(0, b, f"c{b % 3}") for b in range(9)]
    rows += [(1, b, b % 3) for b in range(9)]
    mixed = Table(SCHEMA, rows, SortSpec.of("A", "B", "C")).with_ovcs()
    packable = _table().with_ovcs()
    acb, abc = SortSpec.of("A", "C", "B"), SortSpec.of("A", "B", "C")
    for table, spec, capacity, engine, fallback in (
        (packable, acb, 1000, "fast", False),
        (packable, acb, 8, "fast", False),
        (mixed, acb, 1000, "reference", True),
        (_mixed_within_segments(), abc, 4, "reference", True),
    ):
        sink = io.StringIO()
        LOG.enable(sink)
        TRACER.enable(clear=True)
        Sort(
            TableScan(table), spec, memory_capacity=capacity,
            config=ExecutionConfig(engine="auto"),
        ).to_table()
        LOG.disable()
        events = list(map(json.loads, sink.getvalue().splitlines()))
        (event,) = [e for e in events if e["event"] == "modify.strategy"]
        (executed,) = [e for e in events if e["event"] == "sort.executed"]
        for record in (event, executed):
            assert record["engine"] == engine
            assert record["fallback"] is fallback
        assert "qid" in event
        spans = [
            r["attrs"] for r in TRACER.drain()
            if r["name"] in ("modify.bind", "modify.spill")
        ]
        assert spans and {s["engine"] for s in spans} <= {engine, "reference"}
        assert any(s["fallback"] for s in spans) is fallback


def test_external_sort_reports_engine_and_fallback():
    """``Sort(memory_capacity=)`` over an unordered input: the
    ``sort.executed`` event, the slow-log entry and the full sort's span
    carry the engine that ran, and the span counts the spilled runs."""
    unordered = Table(SCHEMA, list(reversed(_table().rows)))
    mixed = _mixed_within_segments()
    mixed = Table(SCHEMA, list(mixed.rows))
    for table, spec, engine, fallback in (
        (unordered, SortSpec.of("A", "C", "B"), "fast", False),
        (mixed, SortSpec.of("A", "B", "C"), "reference", True),
    ):
        sink = io.StringIO()
        LOG.enable(sink)
        TRACER.enable(clear=True)
        SLOWLOG.enable(0)
        op = Sort(TableScan(table), spec, memory_capacity=8,
                  config=ExecutionConfig(engine="auto"))
        op.to_table()
        LOG.disable()
        (event,) = [e for e in map(json.loads, sink.getvalue().splitlines())
                    if e["event"] == "sort.executed"]
        (span,) = [r for r in TRACER.drain() if r["name"] == "modify.full_sort"]
        entry = [e for e in SLOWLOG.entries if e["kind"] == "sort"][-1]
        assert op.order_strategy == event["strategy"] == "external-sort"
        for record in (event, entry, span["attrs"]):
            assert record["engine"] == engine
            assert record["fallback"] is fallback
        assert span["attrs"]["runs"] == -(-len(table.rows) // 8)


def test_query_events_share_one_qid(tmp_path):
    path = str(tmp_path / "log.jsonl")
    LOG.enable(path)
    Query(_table()).order_by("A").rows()
    LOG.disable()
    events = read_log(path)
    qids = {e.get("qid") for e in events}
    assert len(qids) == 1 and None not in qids
    names = {e["event"] for e in events}
    assert "query.rows" in names


def test_log_events_counter_bumps():
    METRICS.enable(clear=True)
    sink = io.StringIO()
    LOG.enable(sink)
    LOG.event("a")
    LOG.event("b")
    LOG.disable()
    assert METRICS.as_dict()["counters"]["log.events"] == 2


def test_cache_telemetry_names_the_entry_state_and_its_charge(tmp_path):
    """``cache.serve`` events and the ``cache.modify_from`` span say what
    the lookup found — ``memo`` | ``flat`` | ``spilled`` — and the bytes
    that entry had charged to the budget at that moment."""
    from repro.cache import configure_cache, reset_cache
    from repro.cache.store import ENTRY_BYTES
    from repro.workloads.generators import random_table

    source = random_table(SCHEMA, 300, domains=[8, 16, 32], seed=1)
    other = random_table(SCHEMA, 300, domains=[8, 16, 32], seed=2)
    cfg = ExecutionConfig(cache="on")
    abc, acb, ba = (SortSpec.of(*cols) for cols in ("ABC", "ACB", "BA"))

    def run(table, spec):
        Sort(TableScan(table), spec, config=cfg).to_table()

    sink = io.StringIO()
    try:
        configure_cache(spill_dir=str(tmp_path))
        run(source, abc)
        LOG.enable(sink)
        TRACER.enable(clear=True)
        run(source, abc)            # hit on a memo-holding entry
        run(source, acb)            # derived from that entry
        configure_cache(budget=1, spill_dir=str(tmp_path))
        run(source, abc)            # miss; only the arrays stay
        run(source, abc)            # hit on a flat entry
        run(other, ba)              # pushes it to disk
        run(source, abc)            # hit on a spilled entry
        LOG.disable()
    finally:
        reset_cache()
    events = [e for e in map(json.loads, sink.getvalue().splitlines())
              if e["event"] == "cache.serve" and e["decision"] != "miss"]
    assert [(e["decision"], e["entry"]) for e in events] == [
        ("hit", "memo"), ("modify-from-cache", "memo"),
        ("hit", "flat"), ("hit", "spilled"),
    ]
    memo, derived, flat, spilled = (e["entry_bytes"] for e in events)
    assert memo == derived == flat + 300 * (8 * 3 + 16)
    assert 0 < flat - ENTRY_BYTES <= 13 * 300 and spilled == ENTRY_BYTES
    (span,) = [r for r in TRACER.drain() if r["name"] == "cache.modify_from"]
    assert span["attrs"]["entry"] == "memo"
    assert span["attrs"]["entry_bytes"] == memo
