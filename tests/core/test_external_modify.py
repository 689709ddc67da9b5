"""Memory-bounded order modification (hypothesis 1 executable).

``Sort(memory_capacity=)`` over an ordered, coded child runs
:class:`repro.core.external_modify.SegmentLoop`: a ``TableScan`` child
from storage, any other child fed row by row."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modify import modify_sort_order
from repro.engine.misc import Filter
from repro.engine.scans import TableScan
from repro.engine.sort_op import Sort
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.obs import TRACER
from repro.ovc.derive import derive_ovcs, verify_ovcs
from repro.ovc.stats import ComparisonStats

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
    table = replace(table, ovcs=derive_ovcs(rows, (0, 1, 2)))
    return table


def bounded(table, spec, memory_capacity, **kwargs) -> Sort:
    """``Sort`` over ``table`` read from storage, within ``memory_capacity``."""
    return Sort(TableScan(table), spec, memory_capacity=memory_capacity, **kwargs)


@given(rows_st, st.sampled_from(ORDERS), st.integers(2, 20))
@settings(max_examples=60, deadline=None)
def test_agrees_with_in_memory_path(rows, order, capacity):
    table = build(rows)
    spec = SortSpec(order)
    expected = modify_sort_order(table, spec)
    got = bounded(table, spec, capacity).to_table()
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
    table = replace(table, ovcs=derive_ovcs(rows, (0, 1, 2)))

    segmented = bounded(
        table,
        SortSpec.of("A", "C", "B"),
        1000,  # > max segment (~125 rows), << input
    )
    assert segmented.to_table().is_sorted()
    assert segmented.pages.stats.pages_written == 0
    assert segmented.order_strategy == "modify(A,B,C)"

    # The naive plan treats the input as unsorted: memory-sized runs,
    # spilled and merged.
    full = bounded(table, SortSpec.of("A", "C", "B"), 1000, method="full_sort")
    full.to_table()
    assert full.pages.stats.pages_written > 0
    assert full.order_strategy == "external-modify(A,B,C)"


def test_oversized_segment_sort_spills_and_is_correct():
    rng = random.Random(8)
    # One giant segment (single A value), unsorted beyond the prefix.
    rows = sorted(
        ((1, rng.randrange(100), rng.randrange(100)) for _ in range(3000)),
        key=lambda r: (r[0], r[1]),
    )
    table = Table(SCHEMA, rows, SortSpec.of("A", "B"))
    table = replace(table, ovcs=derive_ovcs(rows, (0, 1)))
    spec = SortSpec.of("A", "C")
    op = bounded(table, spec, 256)
    result = op.to_table()
    # (A, C) does not totally order the rows: ties keep input order.
    expected = sorted(rows, key=spec.key_for(SCHEMA))
    assert list(result.rows) == expected
    assert list(result.ovcs) == derive_ovcs(expected, (0, 2))
    assert op.pages.stats.pages_written > 0
    assert op.peak_segment_rows <= 256


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


def _tie_input(path, rows):
    """The child ``path`` reads ``rows`` through: unordered (``sort``),
    sorted on ``A, B`` from storage (``modify_external``) or as a stream
    (``sort-ordered``), or sorted on ``B, A, S DESC`` — one segment whose
    four ``B`` runs merge (``sort-merge-runs``)."""
    if path == "sort":
        return TableScan(Table(TIES, rows))
    in_spec = (
        SortSpec.of("B", "A", "S DESC") if path == "sort-merge-runs"
        else SortSpec.of("A", "B")
    )
    rows.sort(key=in_spec.key_for(TIES))
    table = Table(TIES, rows, in_spec).with_ovcs()
    if path == "sort-ordered":
        return Filter(TableScan(table), lambda row: True)
    return TableScan(table)


@pytest.mark.parametrize("engine", ["auto", "reference"])
@pytest.mark.parametrize("capacity", [16, 1000], ids=["spilling", "in-memory"])
@pytest.mark.parametrize(
    "path", ["modify_external", "sort", "sort-ordered", "sort-merge-runs"]
)
def test_external_paths_are_stable_on_ties(path, capacity, engine):
    """Every memory-bounded path equals stable ``sorted()`` plus fresh
    codes: an unordered ``Sort`` input, oversized sort segments (segments
    hold ~75 rows) read from storage or streamed, and one oversized merge
    segment, with ``fan_in=2`` forcing merge levels.  Only the reference
    engine counts; a capacity below the segments spills, and no path
    holds more rows than it allows."""
    rows = _tie_rows()
    op = Sort(
        _tie_input(path, rows), TIE_ORDER, memory_capacity=capacity,
        fan_in=2, config=ExecutionConfig(engine=engine),
    )
    TRACER.enable(clear=True)
    try:
        result = op.to_table()
        levels = _extsort_levels()
    finally:
        TRACER.disable()
    expected = sorted(rows, key=TIE_ORDER.key_for(TIES))
    assert list(result.rows) == expected
    assert list(result.ovcs) == derive_ovcs(
        expected, TIE_ORDER.positions(TIES), TIE_ORDER.directions
    )
    assert any(op.stats.as_dict().values()) is (engine == "reference")
    assert op.peak_segment_rows <= capacity
    written = op.pages.stats.pages_written
    assert written > 0 if capacity == 16 else written == 0
    if path != "sort-merge-runs":
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
    table = replace(table, ovcs=derive_ovcs(rows, (0, 1, 2)))
    op = bounded(table, SortSpec.of("A", "C", "B"), 100, fan_in=4)
    assert op.to_table().is_sorted()
    # ceil(log_4(64)) = 3 levels -> 2 intermediate waves charged.
    pages = op.pages
    assert pages.stats.pages_written > 0
    assert pages.stats.pages_read == pages.stats.pages_written


def test_noop_and_backward_paths():
    table = build([(1, 2, 3), (2, 0, 0)])
    out = bounded(table, SortSpec.of("A",), 2).to_table()
    assert out.rows == table.rows
    rev = bounded(table, SortSpec.of("A DESC"), 2).to_table()
    assert list(rev.rows) == list(reversed(table.rows))


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
    capacity of 20 lets some A segments fit and spills others.  A child
    that already satisfies the order (``A,B,C``) passes through whatever
    known method is forced, as ``Sort`` always has."""
    rng = random.Random(11)
    table = build(rng.sample(
        [(a, b, c) for a in range(5) for b in range(6) for c in range(7)], 120
    ))
    spec = SortSpec(target)
    oracle = tuple(sorted(table.rows, key=spec.key_for(SCHEMA)))
    try:
        expected = modify_sort_order(table, spec, method=method).rows
    except ValueError as exc:
        if method == "bogus" or not SPEC.satisfies(spec):
            with pytest.raises(ValueError) as got:
                bounded(table, spec, 20, method=method).to_table()
            assert str(got.value) == str(exc)
            return
        expected = oracle
    got = bounded(table, spec, 20, method=method).to_table()
    assert expected == got.rows == oracle
    assert got.ovcs == tuple(derive_ovcs(
        oracle, spec.positions(SCHEMA), spec.directions
    ))


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
    got = Sort(
        TableScan(table, external), spec, method=method,
        memory_capacity=1000, config=ExecutionConfig(engine="reference"),
    ).to_table()
    assert got.rows == expected.rows and got.ovcs == expected.ovcs
    assert external.as_dict() == in_memory.as_dict()


BAD_BOUNDS = [
    ("memory_capacity", 1), ("memory_capacity", 0), ("memory_capacity", -5),
    ("memory_capacity", 2.5), ("memory_capacity", True), ("fan_in", 1),
    ("fan_in", 0), ("fan_in", 4.0), ("fan_in", True),
]


@pytest.mark.parametrize(
    "name,value", BAD_BOUNDS, ids=[f"{n}={v!r}" for n, v in BAD_BOUNDS]
)
def test_capacity_validation(name, value):
    """A bound that could not hold is refused when the ``Sort`` is built
    (``memory_capacity=-5`` used to loop forever, ``0`` failed deep in a
    ``range``), ordered child or not."""
    table = build([(1, 1, 1)])
    for child in (TableScan(table), TableScan(Table(SCHEMA, table.rows))):
        with pytest.raises(ValueError):
            Sort(child, SortSpec.of("B",), **{name: value})
