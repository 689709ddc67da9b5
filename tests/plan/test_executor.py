"""Batch execution: every order through ``Sort`` — fidelity, fallback,
cache interplay, order_by_many."""

from __future__ import annotations

from repro.cache import configure_cache, get_cache
from repro.engine import Sort, TableScan
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec
from repro.obs import METRICS
from repro.ovc.stats import ComparisonStats
from repro.plan import derive_batch
from repro.query import Query
from repro.workloads.generators import random_table

SCHEMA = Schema.of("A", "B", "C", "D")
DOMAINS = [8, 12, 30, 4]
CFG = ExecutionConfig(cache="off")

ORDERS = [
    SortSpec.of("B", "C", "D", "A"),
    SortSpec.of("C", "D", "A", "B"),
    SortSpec.of("D", "A", "B", "C"),
    SortSpec.of("A", "B", "C", "D"),
]


def _sorted_source(n_rows=700, seed=0):
    table = random_table(SCHEMA, n_rows, domains=DOMAINS, seed=seed)
    return Sort(
        TableScan(table), SortSpec.of("A", "B", "C", "D"), config=CFG
    ).to_table()


def _solo(source, spec, cfg=CFG):
    op = Sort(TableScan(source), spec, config=cfg)
    return op.to_table(), op.stats


def test_batch_matches_solo_rows_and_codes():
    source = _sorted_source()
    result = derive_batch(source, ORDERS, config=CFG)
    assert len(result.tables()) == len(ORDERS)
    for spec in ORDERS:
        ref_table, _ = _solo(source, spec)
        node = result.result_for(spec)
        assert node.table.rows == ref_table.rows
        assert node.table.ovcs == ref_table.ovcs
        assert node.table.sort_spec == spec
    assert result.fallbacks == 0
    # The batch counts what its orders count on their own.
    reference = CFG.with_(engine="reference")
    counted = derive_batch(source, ORDERS, config=reference)
    solo_total = ComparisonStats()
    for spec in ORDERS:
        solo_total.merge(_solo(source, spec, reference)[1])
    assert solo_total.row_comparisons > 0
    assert counted.stats == solo_total


def test_duplicate_orders_share_one_node():
    source = _sorted_source(300)
    spec = SortSpec.of("C", "B", "A", "D")
    result = derive_batch(source, [spec, spec], config=CFG)
    tables = result.tables()
    assert len(tables) == 2
    assert tables[0] is tables[1]


def test_unordered_source_full_sorts_every_order():
    table = random_table(SCHEMA, 500, domains=DOMAINS, seed=5)
    specs = [SortSpec.of("A", "B", "C", "D"), SortSpec.of("B", "C", "D", "A")]
    result = derive_batch(table, specs, config=CFG)
    for spec in specs:
        ref_table, _ = _solo(table, spec)
        node = result.result_for(spec)
        assert node.label == "full-sort"
        assert node.table.rows == ref_table.rows
        assert node.table.ovcs == ref_table.ovcs


def test_empty_batch():
    source = _sorted_source(100)
    result = derive_batch(source, [], config=CFG)
    assert result.tables() == []
    assert result.fallbacks == 0


def test_derive_batch_installs_into_cache():
    cfg = ExecutionConfig(cache="on")
    configure_cache(budget=1 << 22)
    source = _sorted_source(400)
    spec = SortSpec.of("D", "C", "B", "A")
    derive_batch(source, [spec], config=cfg)
    # A later solo Sort over the same source is served from the cache.
    op = Sort(TableScan(source), spec, config=cfg)
    out = op.to_table()
    ref_table, _ = _solo(source, spec)
    assert out.rows == ref_table.rows
    assert get_cache().counters()["hits"] >= 1


def test_batch_responses_alias_neither_cache_nor_source():
    """With the cache on, a batch installs every node and later batches
    are exact hits: scribbling on any response must leave the source
    and every later answer untouched."""
    cfg = ExecutionConfig(cache="on")
    configure_cache(budget=1 << 22)
    source = _sorted_source(300)
    rows, ovcs = list(source.rows), list(source.ovcs)
    want = {spec: _solo(source, spec)[0] for spec in ORDERS}
    labels = []
    for _round in range(3):
        result = derive_batch(source, ORDERS, config=cfg)
        for spec in ORDERS:
            node = result.result_for(spec)
            labels.append(node.label)
            assert node.table.rows == want[spec].rows, (spec, node.label)
            assert node.table.ovcs == want[spec].ovcs, (spec, node.label)
            node.table.rows.reverse()
            node.table.rows.pop()
            node.table.ovcs.clear()
        assert source.rows == rows and source.ovcs == ovcs
    assert any(label.startswith("cache-hit(") for label in labels)


def test_parent_invalidated_before_its_turn_is_a_fallback(monkeypatch):
    """The plan picks a cached parent that is gone by the time its
    order runs: that order's ``Sort`` takes another path, and the batch
    says so — with the answer a solo run gives."""
    import repro.engine.sort_op as sort_op

    cfg = ExecutionConfig(cache="on")
    cache = configure_cache(budget=1 << 22)
    source = _sorted_source(400)
    # Over an ordered source only an exact hit has a cached parent.
    target = SortSpec.of("C", "D", "A", "B")
    Sort(TableScan(source), target, config=cfg).to_table()
    first = ORDERS[0]
    want = _solo(source, target)[0]

    real = sort_op.enforce_order

    def _invalidating(*args, **kwargs):
        cache.invalidate()  # every cold execution empties the cache first
        return real(*args, **kwargs)

    monkeypatch.setattr(sort_op, "enforce_order", _invalidating)
    result = derive_batch(source, [first, target], config=cfg)

    nodes = result.plan.nodes
    planned = nodes[result.plan.spec_nodes[target]]
    assert nodes[result.plan.spec_nodes[first]].strategy == "modify"
    assert nodes[planned.parent].kind == "cached"
    assert not result.result_for(first).fallback
    got = result.result_for(target)
    assert got.fallback and result.fallbacks == 1
    assert got.label == "modify(A,B,C,D)"
    assert got.table.rows == want.rows
    assert got.table.ovcs == want.ovcs


def test_metrics_counters_published():
    METRICS.enable(clear=True)
    source = _sorted_source(300)
    derive_batch(source, ORDERS[:2], config=CFG)
    snap = METRICS.as_dict()
    assert snap["counters"]["plan.batches"] == 1
    assert snap["counters"]["plan.nodes"] == 2
    assert snap["histograms"]["plan.batch_size"]["count"] == 1


def test_order_by_many_matches_order_by():
    table = random_table(SCHEMA, 500, domains=DOMAINS, seed=7)
    specs = [["B", "C", "D", "A"], ["C", "D", "A", "B"]]
    got = Query(table).order_by_many(specs, config=CFG)
    assert len(got) == 2
    for cols, out in zip(specs, got):
        ref = Query(table).order_by(*cols, config=CFG).to_table()
        assert out.rows == ref.rows
        assert out.ovcs == ref.ovcs
        assert out.sort_spec == SortSpec(cols)


def test_order_by_many_empty():
    table = random_table(SCHEMA, 50, domains=DOMAINS, seed=1)
    assert Query(table).order_by_many([], config=CFG) == []


def test_order_by_many_merges_stats():
    table = random_table(SCHEMA, 400, domains=DOMAINS, seed=9)
    q = Query(table)
    q.order_by_many(
        [SortSpec.of("A", "B"), SortSpec.of("B", "A")],
        config=CFG.with_(engine="reference"),
    )
    assert q.op.stats.row_comparisons > 0
