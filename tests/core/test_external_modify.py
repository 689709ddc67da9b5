"""Memory-bounded order modification (hypothesis 1 executable)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.external_modify import modify_sort_order_external
from repro.core.modify import modify_sort_order
from repro.engine.scans import TableScan
from repro.engine.sort_op import Sort
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.obs import TRACER
from repro.ovc.derive import derive_ovcs, verify_ovcs
from repro.ovc.stats import ComparisonStats
from repro.storage.pages import PageManager

SCHEMA = Schema.of("A", "B", "C")
SPEC = SortSpec.of("A", "B", "C")

rows_st = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    max_size=60,
)

ORDERS = [("A", "C", "B"), ("B", "A", "C"), ("A", "C"), ("C", "A", "B")]


def build(rows) -> Table:
    rows = sorted(rows)
    table = Table(SCHEMA, rows, SPEC)
    table.ovcs = derive_ovcs(rows, (0, 1, 2))
    return table


@given(rows_st, st.sampled_from(ORDERS), st.integers(2, 20))
@settings(max_examples=60, deadline=None)
def test_agrees_with_in_memory_path(rows, order, capacity):
    table = build(rows)
    spec = SortSpec(order)
    expected = modify_sort_order(table, spec)
    got = modify_sort_order_external(table, spec, memory_capacity=capacity)
    assert got.rows == expected.rows
    assert verify_ovcs(got.rows, got.ovcs, spec.positions(SCHEMA))


def test_hypothesis1_segments_fit_no_spill():
    """Segments below memory: zero spill; a whole-input external sort
    of the same data spills every row at least once."""
    rng = random.Random(7)
    rows = sorted(
        (rng.randrange(64), rng.randrange(1000), rng.randrange(1000))
        for _ in range(8000)
    )
    table = Table(SCHEMA, rows, SPEC)
    table.ovcs = derive_ovcs(rows, (0, 1, 2))

    pages_seg = PageManager()
    result = modify_sort_order_external(
        table,
        SortSpec.of("A", "C", "B"),
        memory_capacity=1000,  # > max segment (~125 rows), << input
        page_manager=pages_seg,
    )
    assert result.is_sorted()
    assert pages_seg.stats.pages_written == 0

    # The naive plan treats the input as unsorted: memory-sized runs,
    # spilled and merged.
    pages_full = PageManager()
    modify_sort_order_external(
        table,
        SortSpec.of("A", "C", "B"),
        memory_capacity=1000,
        page_manager=pages_full,
        method="full_sort",
    )
    assert pages_full.stats.pages_written > 0


def test_oversized_segment_sort_spills_and_is_correct():
    rng = random.Random(8)
    # One giant segment (single A value), unsorted beyond the prefix.
    rows = sorted(
        ((1, rng.randrange(100), rng.randrange(100)) for _ in range(3000)),
        key=lambda r: (r[0], r[1]),
    )
    table = Table(SCHEMA, rows, SortSpec.of("A", "B"))
    table.ovcs = derive_ovcs(rows, (0, 1))
    pages = PageManager()
    spec = SortSpec.of("A", "C")
    result = modify_sort_order_external(
        table, spec, memory_capacity=256, page_manager=pages,
    )
    # (A, C) does not totally order the rows: ties keep input order.
    expected = sorted(rows, key=spec.key_for(SCHEMA))
    assert result.rows == expected
    assert result.ovcs == derive_ovcs(expected, (0, 2))
    assert pages.stats.pages_written > 0


#: Four values per key column, a row id outside the key, and a
#: descending string column: nearly every row has key-equal twins.
TIES = Schema.of("A", "B", "S", "ID")
TIE_ORDER = SortSpec.of("A", "S DESC", "B")


def _tie_rows(n=300, seed=5):
    rng = random.Random(seed)
    return [
        (rng.randrange(4), rng.randrange(4), f"s{rng.randrange(4)}", i)
        for i in range(n)
    ]


def _extsort_levels():
    return sum(1 for r in TRACER.drain() if r["name"] == "extsort.merge_pass")


@pytest.mark.parametrize("engine", ["auto", "reference"])
@pytest.mark.parametrize("capacity", [16, 1000], ids=["spilling", "in-memory"])
@pytest.mark.parametrize("path", ["modify_external", "sort"])
def test_external_paths_are_stable_on_ties(path, capacity, engine):
    """Both memory-bounded paths equal stable ``sorted()`` plus fresh
    codes: an oversized sort segment (segments hold ~75 rows) and an
    unordered ``Sort`` input, with ``fan_in=2`` forcing merge levels."""
    rows = _tie_rows()
    cfg = ExecutionConfig(engine=engine)
    TRACER.enable(clear=True)
    try:
        if path == "sort":
            op = Sort(
                TableScan(Table(TIES, rows)), TIE_ORDER,
                memory_capacity=capacity, fan_in=2, config=cfg,
            )
            result = op.to_table()
            counted = any(op.stats.as_dict().values())
            assert counted is (engine == "reference")
        else:
            rows.sort(key=lambda r: (r[0], r[1]))
            table = Table(TIES, rows, SortSpec.of("A", "B"))
            table.ovcs = derive_ovcs(rows, (0, 1))
            result = modify_sort_order_external(
                table, TIE_ORDER, memory_capacity=capacity, fan_in=2,
                config=cfg,
            )
        levels = _extsort_levels()
    finally:
        TRACER.disable()
    expected = sorted(rows, key=TIE_ORDER.key_for(TIES))
    assert result.rows == expected
    assert result.ovcs == derive_ovcs(
        expected, TIE_ORDER.positions(TIES), TIE_ORDER.directions
    )
    assert levels >= 2 if capacity == 16 else levels == 0


def test_oversized_merge_charges_wave_io():
    rng = random.Random(9)
    # 64 runs in one segment; fan-in 4 forces multi-wave merging.
    rows = sorted(
        (1, b, rng.randrange(10_000))
        for b in range(64)
        for _ in range(40)
    )
    table = Table(SCHEMA, rows, SPEC)
    table.ovcs = derive_ovcs(rows, (0, 1, 2))
    pages = PageManager()
    result = modify_sort_order_external(
        table,
        SortSpec.of("A", "C", "B"),
        memory_capacity=100,
        fan_in=4,
        page_manager=pages,
    )
    assert result.is_sorted()
    # ceil(log_4(64)) = 3 levels -> 2 intermediate waves charged.
    assert pages.stats.pages_written > 0
    assert pages.stats.pages_read == pages.stats.pages_written


def test_noop_and_backward_paths():
    table = build([(1, 2, 3), (2, 0, 0)])
    out = modify_sort_order_external(table, SortSpec.of("A",), memory_capacity=2)
    assert out.rows == table.rows
    rev = modify_sort_order_external(
        table, SortSpec.of("A DESC"), memory_capacity=2
    )
    assert rev.rows == list(reversed(table.rows))


#: One target per structural plan: combined, merge_runs, noop, full_sort,
#: segment_sort, backward.
TARGETS = [
    ("A", "C", "B"), ("B", "A", "C"), ("A", "B", "C"), ("C", "B", "A"),
    ("A", "B DESC", "C"), ("A DESC", "B DESC", "C DESC"),
]
METHODS = [
    "auto", "noop", "segment_sort", "merge_runs", "combined", "full_sort",
    "bogus",
]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("target", TARGETS, ids=",".join)
def test_method_is_honoured_as_in_memory(target, method):
    """A forced method means what it means to ``modify_sort_order``:
    both raise the same ``ValueError``, or both return the oracle.  A
    capacity of 20 lets some A segments fit and spills others."""
    rng = random.Random(11)
    table = build(rng.sample(
        [(a, b, c) for a in range(5) for b in range(6) for c in range(7)], 120
    ))
    spec = SortSpec(target)
    try:
        expected = modify_sort_order(table, spec, method=method)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            modify_sort_order_external(
                table, spec, memory_capacity=20, method=method
            )
        assert str(got.value) == str(exc)
        return
    got = modify_sort_order_external(
        table, spec, memory_capacity=20, method=method
    )
    oracle = sorted(table.rows, key=spec.key_for(SCHEMA))
    assert expected.rows == got.rows == oracle
    assert got.ovcs == derive_ovcs(
        oracle, spec.positions(SCHEMA), spec.directions
    )


@pytest.mark.parametrize("method", ["merge_runs", "combined", "segment_sort"])
def test_forced_method_runs_that_strategy(method):
    """With every segment in memory a forced method costs exactly the
    comparisons it costs ``modify_sort_order`` — ``merge_runs`` is one
    merge over the whole input, not a merge per prefix segment."""
    rng = random.Random(12)
    table = build(
        (rng.randrange(8), rng.randrange(8), rng.randrange(8))
        for _ in range(400)
    )
    spec = SortSpec.of("A", "C", "B")
    in_memory, external = ComparisonStats(), ComparisonStats()
    expected = modify_sort_order(table, spec, method=method, stats=in_memory)
    got = modify_sort_order_external(
        table, spec, memory_capacity=1000, method=method, stats=external
    )
    assert got.rows == expected.rows and got.ovcs == expected.ovcs
    assert external.as_dict() == in_memory.as_dict()


def test_capacity_validation():
    table = build([(1, 1, 1)])
    with pytest.raises(ValueError):
        modify_sort_order_external(table, SortSpec.of("B",), memory_capacity=1)
