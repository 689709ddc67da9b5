"""Property-based differential: planned batches == per-request runs.

The planner's whole contract is bit-identity — every node's rows and
codes must match what an independent ``Sort`` of the same order would
produce, whatever parent the planner picked.  Hypothesis drives
random tables (tiny domains, so duplicate groups and full-key ties are
dense), random order batches drawn from permutations and prefixes,
both engines, ordered and unordered sources.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Sort, TableScan
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.ovc.stats import ComparisonStats
from repro.plan import derive_batch, plan_batch

SCHEMA = Schema.of("A", "B", "C")
REFERENCE = ExecutionConfig(cache="off", engine="reference")

#: Every permutation of the columns, plus the proper prefixes of a few
#: of them — related and unrelated targets mixed.
ORDER_POOL = [
    SortSpec.of(*perm)
    for perm in itertools.permutations(SCHEMA.columns)
] + [
    SortSpec.of("A"),
    SortSpec.of("B"),
    SortSpec.of("A", "B"),
    SortSpec.of("B", "C"),
    SortSpec.of("C DESC", "A"),
]

rows_st = st.lists(
    st.tuples(
        st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)
    ),
    min_size=0,
    max_size=48,
)
batch_st = st.lists(
    st.sampled_from(ORDER_POOL), min_size=1, max_size=6
)


def _solo(source: Table, spec: SortSpec, cfg: ExecutionConfig):
    op = Sort(TableScan(source), spec, config=cfg)
    return op.to_table(), op.stats


def _check(source: Table, specs, cfg: ExecutionConfig):
    """Every order's rows and codes are its solo run's, and the batch
    counts what those solo runs count together (cache off)."""
    result = derive_batch(source, specs, config=cfg)
    solo_total = ComparisonStats()
    for spec in dict.fromkeys(specs):
        ref_table, ref_stats = _solo(source, spec, cfg)
        node = result.result_for(spec)
        assert node.table.rows == ref_table.rows, spec
        assert node.table.ovcs == ref_table.ovcs, spec
        solo_total.merge(ref_stats)
    assert result.stats == solo_total


@given(rows_st, batch_st)
@settings(max_examples=60, deadline=None)
def test_unordered_source_reference_engine(rows, specs):
    source = Table(SCHEMA, rows, None, None)
    _check(source, specs, REFERENCE)


@given(rows_st, batch_st)
@settings(max_examples=60, deadline=None)
def test_ordered_source_reference_engine(rows, specs):
    base = Table(SCHEMA, rows, None, None)
    source = Sort(
        TableScan(base), SortSpec.of("A", "B", "C"),
        config=ExecutionConfig(cache="off"),
    ).to_table()
    _check(source, specs, REFERENCE)


@given(rows_st, batch_st)
@settings(max_examples=40, deadline=None)
def test_ordered_source_fast_engine(rows, specs):
    cfg = ExecutionConfig(cache="off", engine="fast")
    base = Table(SCHEMA, rows, None, None)
    source = Sort(
        TableScan(base), SortSpec.of("A", "B", "C"), config=cfg
    ).to_table()
    _check(source, specs, cfg)


@given(rows_st, batch_st)
@settings(max_examples=40, deadline=None)
def test_batch_with_cache_enabled(rows, specs):
    from repro.cache import configure_cache, reset_cache

    reset_cache()
    configure_cache(budget=1 << 22)
    try:
        base = Table(SCHEMA, rows, None, None)
        cfg = ExecutionConfig(cache="on")
        source = Sort(
            TableScan(base), SortSpec.of("A", "B", "C"), config=cfg
        ).to_table()
        result = derive_batch(source, specs, config=cfg)
        solo_cfg = ExecutionConfig(cache="off")
        for spec in specs:
            ref_table, _ = _solo(source, spec, solo_cfg)
            node = result.result_for(spec)
            assert node.table.rows == ref_table.rows, spec
            assert node.table.ovcs == ref_table.ovcs, spec
    finally:
        reset_cache()


@given(rows_st, batch_st, st.lists(st.sampled_from(ORDER_POOL), max_size=3),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_no_plan_has_a_requested_parent(rows, specs, cached, ordered):
    """Every parent is materialized — the source or a cached order — and
    each order's is the one it would get planned alone."""
    from repro.cache import configure_cache, fingerprint_table, reset_cache

    cache = configure_cache(budget=1 << 22)
    try:
        cfg = ExecutionConfig(cache="on")
        source = Table(SCHEMA, rows, None, None)
        if ordered:
            source = Sort(
                TableScan(source), SortSpec.of("A", "B", "C"), config=cfg
            ).to_table()
        for spec in cached:
            Sort(TableScan(source), spec, config=cfg).to_table()
        fp = fingerprint_table(source)
        plan = plan_batch(source, specs, cache=cache, fingerprint=fp)
        assert plan.sibling_edges() == 0
        for idx in plan.order:
            node = plan.nodes[idx]
            parent = plan.nodes[node.parent]
            assert parent.kind in ("source", "cached") and not parent.requested
            alone = plan_batch(
                source, [node.spec], cache=cache, fingerprint=fp
            )
            single = alone.nodes[alone.nodes[alone.order[0]].parent]
            assert (single.kind, single.spec) == (parent.kind, parent.spec)
    finally:
        reset_cache()
