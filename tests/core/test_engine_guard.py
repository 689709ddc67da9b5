"""The ``engine="auto"`` guard: non-packable keys fall back, not raise.

The packed codec ranks each key column by sorting its distinct values,
which requires mutually comparable values across the *whole* column.
The reference executors only ever compare values within a segment, so
inputs that are per-segment uniform but globally mixed (int in one
segment, str in another; all-``None`` segments) are perfectly legal —
``engine="auto"`` must detect the codec's refusal and run them on the
reference path, while an explicit ``engine="fast"`` still raises.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.cache import reset_cache
from repro.core.modify import modify_sort_order
from repro.engine.modify_op import StreamingModify
from repro.engine.scans import TableScan
from repro.engine.sort_op import Sort
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs, verify_ovcs
from repro.plan import derive_batch
from repro.serve import OrderService

SCHEMA = Schema.of("A", "B", "C")
IN_SPEC = SortSpec.of("A", "B", "C")
OUT_SPEC = SortSpec.of("A", "C", "B")


def _mixed_type_table() -> Table:
    """Segment A=0 carries str B/C values, segment A=1 carries ints."""
    rows = [(0, f"b{b}", f"c{(b * 3) % 5}") for b in range(40)]
    rows += [(1, b % 7, (b * 5) % 11) for b in range(40)]
    rows.sort(key=lambda r: (r[0], str(r[1]), str(r[2])))
    # Sorted within each segment by (B, C); across segments A decides.
    rows = sorted(rows[:40], key=lambda r: (r[1], r[2])) + sorted(
        rows[40:], key=lambda r: (r[1], r[2])
    )
    table = Table(SCHEMA, rows, IN_SPEC)
    table = replace(table, ovcs=derive_ovcs(rows, (0, 1, 2)))
    return table


def _none_segment_table() -> Table:
    """Segment A=0 has C=None throughout; segment A=1 has int C."""
    rows = [(0, b, None) for b in range(30)]
    rows += [(1, b % 5, (b * 7) % 13) for b in range(30)]
    rows = rows[:30] + sorted(rows[30:], key=lambda r: (r[1], r[2]))
    table = Table(SCHEMA, rows, IN_SPEC)
    table = replace(table, ovcs=derive_ovcs(rows, (0, 1, 2)))
    return table


@pytest.mark.parametrize(
    "make_table", [_mixed_type_table, _none_segment_table],
    ids=["mixed-int-str", "none-segment"],
)
def test_auto_engine_falls_back_on_non_packable_keys(make_table):
    table = make_table()
    expected = modify_sort_order(table, OUT_SPEC, config=ExecutionConfig(engine="reference"))
    result = modify_sort_order(table, OUT_SPEC, config=ExecutionConfig(engine="auto"))
    assert result.rows == expected.rows
    assert result.ovcs == expected.ovcs
    assert verify_ovcs(
        result.rows, result.ovcs, OUT_SPEC.positions(SCHEMA), OUT_SPEC.directions
    )


@pytest.mark.parametrize(
    "make_table", [_mixed_type_table, _none_segment_table],
    ids=["mixed-int-str", "none-segment"],
)
def test_explicit_fast_engine_still_raises(make_table):
    with pytest.raises(TypeError):
        modify_sort_order(make_table(), OUT_SPEC, config=ExecutionConfig(engine="fast"))


def test_auto_engine_still_uses_fast_kernels_for_packable_input():
    # Sanity: uniformly-typed input takes the fast path (no counters
    # requested, no fan-in cap) and matches the reference engine.
    rows = sorted((a % 4, b % 6, (a * b) % 5) for a in range(20) for b in range(10))
    table = Table(SCHEMA, rows, IN_SPEC)
    table = replace(table, ovcs=derive_ovcs(rows, (0, 1, 2)))
    auto = modify_sort_order(table, OUT_SPEC, config=ExecutionConfig(engine="auto"))
    ref = modify_sort_order(table, OUT_SPEC, config=ExecutionConfig(engine="reference"))
    assert auto.rows == ref.rows and auto.ovcs == ref.ovcs


# ---------------------------------------------------------------------------
# The same guard on every path that enforces an order through
# ``repro.core.enforce.enforce_order``: the Sort operator (ordered and
# unordered child — the latter is the full-sort fallback), the batch
# planner, and the order service; with the cache off and on.  One oracle
# judges all of them: rows == stable ``sorted()``, codes == fresh
# ``derive_ovcs``.
# ---------------------------------------------------------------------------


def _mixed_within_segment_table() -> Table:
    """Sorted on A only.  Inside every A segment C is a str, except for
    one pair of rows tied on B whose C is an int: sorting on A,B,C only
    ever compares the C values of that pair."""
    rows = []
    for a in range(3):
        segment = [(a, b, f"c{b}") for b in range(20)]
        segment[6:8] = [(a, 6, 2), (a, 6, 1)]
        random.Random(a).shuffle(segment)
        rows += segment
    table = Table(SCHEMA, rows, SortSpec.of("A"))
    table = replace(table, ovcs=derive_ovcs(rows, (0,)))
    return table


#: name -> (table maker, requested order, a related order to ask for next)
CASES = {
    "mixed-across-segments": (_mixed_type_table, OUT_SPEC, IN_SPEC),
    "none-segment": (_none_segment_table, OUT_SPEC, IN_SPEC),
    "mixed-within-segment": (
        _mixed_within_segment_table, IN_SPEC, SortSpec.of("A", "B DESC", "C"),
    ),
}


@pytest.fixture(autouse=True)
def _fresh_process_cache():
    reset_cache()
    yield
    reset_cache()


def _source(case: str, ordered: bool) -> Table:
    table = CASES[case][0]()
    if ordered:
        return table
    rows = list(table.rows)
    random.Random(7).shuffle(rows)
    return Table(SCHEMA, rows)


def _via_sort(source, spec, cfg):
    return [Sort(TableScan(source), spec, config=cfg).to_table()]


def _via_derive_batch(source, spec, cfg):
    # Two orders in one batch; with the cache on, the second round is
    # answered from the entries the first installed.
    return derive_batch(source, [spec, spec.prefix(2)], config=cfg).tables()


def _via_service(source, spec, cfg):
    with OrderService(cfg) as service:
        return [service.order_by(source, spec).table]


PATHS = {
    "sort": _via_sort,
    "derive_batch": _via_derive_batch,
    "service": _via_service,
}


def _assert_oracle(result: Table, source: Table, spec: SortSpec) -> None:
    expected = sorted(source.rows, key=spec.key_for(SCHEMA))
    assert list(result.rows) == expected
    assert list(result.ovcs) == derive_ovcs(
        expected, spec.positions(SCHEMA), spec.directions
    )


@pytest.mark.parametrize("cache", ["off", "on"])
@pytest.mark.parametrize("engine", ["auto", "reference"])
@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("ordered", [True, False], ids=["ordered", "unordered"])
@pytest.mark.parametrize("case", CASES)
def test_unpackable_keys_on_every_enforcement_path(
    case, ordered, path, engine, cache
):
    source = _source(case, ordered)
    spec = CASES[case][1]
    cfg = ExecutionConfig(engine=engine, cache=cache)
    # Twice: with the cache on, the second round is served from it.
    for _round in range(2):
        tables = PATHS[path](source, spec, cfg)
        _assert_oracle(tables[0], source, spec)
        for sibling in tables[1:]:
            _assert_oracle(sibling, source, spec.prefix(2))
    if cache == "on" and not ordered:
        # A related order now modifies the cached one (modify-from-cache).
        related = CASES[case][2]
        op = Sort(TableScan(source), related, config=cfg)
        _assert_oracle(op.to_table(), source, related)
        assert op.order_strategy.startswith("modify-from-cache(")


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("ordered", [True, False], ids=["ordered", "unordered"])
@pytest.mark.parametrize("case", CASES)
def test_forced_fast_engine_raises_on_every_enforcement_path(case, ordered, path):
    source = _source(case, ordered)
    spec = CASES[case][1]
    with pytest.raises(TypeError):
        PATHS[path](source, spec, ExecutionConfig(engine="fast", cache="off"))


# ---------------------------------------------------------------------------
# The modify paths that take an ordered, coded source only: the streaming
# operator and ``Sort(memory_capacity=)`` over an ordered child (one
# segment loop serves both), whose capacity is either below every
# segment (each one spills) or above all of them (all in memory).
# They bind their executors where every other path does, so the same
# oracle holds.
# ---------------------------------------------------------------------------


def _via_streaming(source, spec, cfg):
    out = list(StreamingModify(TableScan(source), spec, config=cfg))
    return [Table(SCHEMA, [r for r, _ in out], spec, [c for _, c in out])]


def _via_external(memory_capacity):
    def via(source, spec, cfg):
        return [Sort(
            TableScan(source), spec, memory_capacity=memory_capacity,
            config=cfg,
        ).to_table()]

    return via


ORDERED_PATHS = {
    "streaming": _via_streaming,
    "external-spilling": _via_external(8),
    "external-in-memory": _via_external(1000),
}

#: Where a forced ``fast`` engine packs no column that mixes types: the
#: streaming operator and an oversized sort segment's external sort pack
#: one segment at a time (uniformly typed here except within-segment),
#: and oversized merge segments never reach the kernels.
PACKS_UNIFORM_KEYS = {
    ("streaming", "mixed-across-segments"),
    ("streaming", "none-segment"),
    ("external-spilling", "mixed-across-segments"),
    ("external-spilling", "none-segment"),
}


@pytest.mark.parametrize("engine", ["auto", "reference"])
@pytest.mark.parametrize("path", ORDERED_PATHS)
@pytest.mark.parametrize("case", CASES)
def test_unpackable_keys_on_every_ordered_modify_path(case, path, engine):
    source = _source(case, ordered=True)
    spec = CASES[case][1]
    [result] = ORDERED_PATHS[path](source, spec, ExecutionConfig(engine=engine))
    _assert_oracle(result, source, spec)


@pytest.mark.parametrize("path", ORDERED_PATHS)
@pytest.mark.parametrize("case", CASES)
def test_forced_fast_engine_on_every_ordered_modify_path(case, path):
    source = _source(case, ordered=True)
    spec = CASES[case][1]
    cfg = ExecutionConfig(engine="fast")
    if (path, case) in PACKS_UNIFORM_KEYS:
        [result] = ORDERED_PATHS[path](source, spec, cfg)
        _assert_oracle(result, source, spec)
        return
    with pytest.raises(TypeError):
        ORDERED_PATHS[path](source, spec, cfg)
