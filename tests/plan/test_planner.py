"""Derivation planner: node/edge construction, costs, execution order."""

from __future__ import annotations

import collections
import threading

import pytest

import repro.plan.cardinality as cardinality_mod
import repro.plan.planner as planner_mod

from repro.cache import (
    configure_cache,
    fingerprint_table,
    get_cache,
    install_result,
)
from repro.engine import Sort, TableScan
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.ovc.stats import ComparisonStats
from repro.plan import CardinalityEstimator, plan_batch
from repro.workloads.generators import random_table

SCHEMA = Schema.of("A", "B", "C", "D")
DOMAINS = [8, 12, 30, 4]
CFG = ExecutionConfig(cache="off")


def _sorted_source(n_rows=600, seed=0, spec=None):
    table = random_table(SCHEMA, n_rows, domains=DOMAINS, seed=seed)
    spec = spec or SortSpec.of("A", "B", "C", "D")
    return Sort(TableScan(table), spec, config=CFG).to_table()


def _requested(plan):
    return [n for n in plan.nodes if n.requested]


def test_rotation_chain_uses_sibling_edges():
    source = _sorted_source()
    specs = [
        SortSpec.of("B", "C", "D", "A"),
        SortSpec.of("C", "D", "A", "B"),
        SortSpec.of("D", "A", "B", "C"),
    ]
    plan = plan_batch(source, specs)
    assert [n.spec for n in _requested(plan)] == specs
    assert plan.sibling_edges() >= 1
    assert plan.est_planned < plan.est_independent
    assert plan.est_speedup > 1.0
    # Execution order is parents-first.
    seen = set()
    for idx in plan.order:
        parent = plan.nodes[idx].parent
        if plan.nodes[parent].requested:
            assert parent in seen
        seen.add(idx)
    assert sorted(plan.order) == sorted(n.index for n in _requested(plan))


def test_source_order_is_passthrough_with_zero_cost():
    source = _sorted_source()
    full = SortSpec.of("A", "B", "C", "D")
    prefix = SortSpec.of("A", "B")
    plan = plan_batch(source, [full, prefix])
    nodes = {n.spec: n for n in _requested(plan)}
    assert nodes[full].strategy == "passthrough"
    assert nodes[full].edge_cost == 0.0
    assert nodes[full].parent == 0
    assert nodes[prefix].strategy == "passthrough"
    assert nodes[prefix].edge_cost == 0.0


def test_unordered_source_prices_full_sort_root():
    table = random_table(SCHEMA, 400, domains=DOMAINS, seed=3)
    specs = [SortSpec.of("A", "B"), SortSpec.of("B", "A")]
    plan = plan_batch(table, specs)
    roots = [
        n for n in _requested(plan) if not plan.nodes[n.parent].requested
    ]
    assert all(n.strategy == "full-sort" for n in roots)
    assert all(n.parent == 0 for n in roots)
    # At least one order should chain off another rather than pay a
    # second full sort.
    assert plan.sibling_edges() >= 1


def test_cached_order_becomes_parent():
    configure_cache(budget=1 << 22)
    cache = get_cache()
    source = _sorted_source()
    fp = fingerprint_table(source)
    cached_spec = SortSpec.of("C", "D", "A", "B")
    cached_table = Sort(TableScan(source), cached_spec, config=CFG).to_table()
    assert install_result(cache, fp, cached_spec, cached_table, ComparisonStats())

    plan = plan_batch(
        source, [cached_spec], cache=cache, fingerprint=fp
    )
    (node,) = _requested(plan)
    assert plan.nodes[node.parent].kind == "cached"
    assert node.strategy == "cache-hit"
    assert node.edge_cost == 0.0


def test_cached_relative_priced_with_exact_counts():
    configure_cache(budget=1 << 22)
    cache = get_cache()
    source = _sorted_source()
    fp = fingerprint_table(source)
    cached_spec = SortSpec.of("C", "D", "A", "B")
    cached_table = Sort(TableScan(source), cached_spec, config=CFG).to_table()
    install_result(cache, fp, cached_spec, cached_table, ComparisonStats())

    # C,D,B,A shares a 2-column prefix with the cached order but none
    # with the source — the cached parent must win despite WIN_MARGIN.
    target = SortSpec.of("C", "D", "B", "A")
    plan = plan_batch(source, [target], cache=cache, fingerprint=fp)
    (node,) = _requested(plan)
    assert plan.nodes[node.parent].kind == "cached"
    assert node.strategy == "modify-from-cache"
    assert node.edge_cost < node.baseline_cost


def test_duplicate_specs_are_deduplicated():
    source = _sorted_source()
    spec = SortSpec.of("B", "A")
    plan = plan_batch(source, [spec, spec, spec])
    assert len(_requested(plan)) == 1
    assert plan.spec_nodes == {spec: 1}


def test_explain_mentions_every_requested_order():
    source = _sorted_source()
    specs = [SortSpec.of("B", "C", "D", "A"), SortSpec.of("C", "D", "A", "B")]
    plan = plan_batch(source, specs)
    text = plan.explain()
    assert "derivation plan: 2 order(s)" in text
    assert "source(" in text
    for spec in specs:
        assert ",".join(str(c) for c in spec.columns) in text
    assert "est " in text and "x vs independent" in text


def test_planning_is_deterministic():
    source = _sorted_source()
    specs = [
        SortSpec.of("B", "C", "D", "A"),
        SortSpec.of("C", "D", "A", "B"),
        SortSpec.of("D", "C", "B", "A"),
    ]
    first = plan_batch(source, specs)
    second = plan_batch(source, specs)
    assert [(n.parent, n.strategy) for n in first.nodes] == [
        (n.parent, n.strategy) for n in second.nodes
    ]
    assert first.order == second.order
    assert first.est_planned == pytest.approx(second.est_planned)


# ----------------------------------------------- estimates kept on the table

ROTATIONS = [
    SortSpec.of("B", "C", "D", "A"),
    SortSpec.of("C", "D", "A", "B"),
    SortSpec.of("D", "A", "B", "C"),
]


def _costs(plan):
    return [
        (n.spec, n.parent, n.edge_cost, n.baseline_cost)
        for n in _requested(plan)
    ]


def _fresh_costs(source):
    """The plan of a table that remembers nothing about ``source``."""
    twin = Table(source.schema, list(source.rows), source.sort_spec,
                 list(source.ovcs))
    return _costs(plan_batch(twin, ROTATIONS))


def _count_estimation_work(monkeypatch):
    """Count estimator constructions and full-sample ``Counter`` passes."""
    work = {"estimators": 0, "passes": 0}

    class CountingEstimator(CardinalityEstimator):
        def __init__(self, *args, **kwargs):
            work["estimators"] += 1
            super().__init__(*args, **kwargs)

    def counting_counter(*args, **kwargs):
        work["passes"] += 1
        return collections.Counter(*args, **kwargs)

    monkeypatch.setattr(planner_mod, "CardinalityEstimator", CountingEstimator)
    monkeypatch.setattr(cardinality_mod, "Counter", counting_counter)
    return work


def test_estimates_are_computed_once_per_table(monkeypatch):
    work = _count_estimation_work(monkeypatch)
    source = _sorted_source()
    first = plan_batch(source, ROTATIONS)
    assert work["estimators"] == 1 and work["passes"] >= 1
    after_first = dict(work)
    second = plan_batch(source, ROTATIONS)
    assert work == after_first  # priced from the table's memo
    assert _costs(second) == _costs(first)
    # A different batch over the same table adds only its new column sets.
    plan_batch(source, [SortSpec.of("B", "A"), SortSpec.of("B", "D", "A")])
    assert work["estimators"] == 1


@pytest.mark.parametrize("edit", ["in-place", "re-assigned"])
def test_row_edit_recomputes_estimates(monkeypatch, edit):
    work = _count_estimation_work(monkeypatch)
    source = _sorted_source()
    before = _costs(plan_batch(source, ROTATIONS))
    # Collapse all but a few rows onto one: every distinct count drops.
    keep = 10
    if edit == "in-place":
        for i in range(keep, len(source.rows)):
            source.rows[i] = source.rows[keep]
    else:
        source.rows = source.rows[:keep] + [source.rows[keep]] * (
            len(source.rows) - keep
        )
    after = _costs(plan_batch(source, ROTATIONS))
    assert work["estimators"] == 2
    assert after != before
    assert after == _fresh_costs(source)
    memo = source._facts().cardinality
    fresh = CardinalityEstimator(source.rows, source.schema)
    assert memo._memo  # the estimator was consulted, so this compares something
    for names, estimate in memo._memo.items():
        assert estimate == fresh.distinct(tuple(names))


def test_concurrent_planners_of_one_table_agree():
    source = _sorted_source(2000)
    want = _fresh_costs(source)
    barrier = threading.Barrier(2)
    got = []

    def _plan():
        barrier.wait(timeout=10)
        got.append(_costs(plan_batch(source, ROTATIONS)))

    threads = [threading.Thread(target=_plan) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert got == [want, want]
    assert _costs(plan_batch(source, ROTATIONS)) == want
