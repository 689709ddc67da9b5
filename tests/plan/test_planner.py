"""Derivation planner: parent choice, costs, execution order."""

from __future__ import annotations

import threading
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.cache import (
    configure_cache,
    fingerprint_table,
    get_cache,
    install_result,
    serve,
)
from repro.engine import Sort, TableScan
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.ovc.stats import ComparisonStats
from repro.plan import derive_batch, plan_batch
from repro.testing import assert_stable_sort_of, assert_table_valid
from repro.workloads.generators import random_sorted_table, random_table

SCHEMA = Schema.of("A", "B", "C", "D")
DOMAINS = [8, 12, 30, 4]
CFG = ExecutionConfig(cache="off")


def _sorted_source(n_rows=600, seed=0, spec=None):
    table = random_table(SCHEMA, n_rows, domains=DOMAINS, seed=seed)
    spec = spec or SortSpec.of("A", "B", "C", "D")
    return Sort(TableScan(table), spec, config=CFG).to_table()


def _requested(plan):
    return [n for n in plan.nodes if n.requested]


def _costs(plan):
    return [
        (n.spec, n.parent, n.edge_cost, n.baseline_cost)
        for n in _requested(plan)
    ]


ROTATIONS = [
    SortSpec.of("B", "C", "D", "A"),
    SortSpec.of("C", "D", "A", "B"),
    SortSpec.of("D", "A", "B", "C"),
]


def test_rotation_batch_derives_every_order_from_the_source():
    source = _sorted_source()
    plan = plan_batch(source, ROTATIONS)
    assert [n.spec for n in _requested(plan)] == ROTATIONS
    assert plan.sibling_edges() == 0
    assert plan.order == [n.index for n in _requested(plan)]
    for node in _requested(plan):
        assert node.parent == 0
        assert node.strategy == "modify"
        # An ordered, coded source is its own parent: nothing is priced.
        assert node.edge_cost == node.baseline_cost == 0.0
    assert plan.est_planned == plan.est_independent
    assert plan.est_speedup == 1.0


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
    for node in _requested(plan):
        assert node.parent == 0
        assert node.strategy == "full-sort"
        assert node.edge_cost == node.baseline_cost > 0
    assert plan.sibling_edges() == 0


def test_cached_order_becomes_parent():
    configure_cache(budget=1 << 22)
    cache = get_cache()
    source = _sorted_source()
    fp = fingerprint_table(source)
    cached_spec = SortSpec.of("C", "D", "A", "B")
    cached_table = Sort(TableScan(source), cached_spec, config=CFG).to_table()
    assert install_result(cache, fp, cached_spec, cached_table)

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
    source = random_table(SCHEMA, 600, domains=DOMAINS, seed=0)
    fp = fingerprint_table(source)
    cached_spec = SortSpec.of("C", "D", "A", "B")
    cached_table = Sort(TableScan(source), cached_spec, config=CFG).to_table()
    install_result(cache, fp, cached_spec, cached_table)

    # C,D,B,A shares a 2-column prefix with the cached order, and the
    # source is unordered — the cached parent must beat a full sort
    # despite WIN_MARGIN.
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


# ------------------------------------------ the dispatcher's choice, batched

#: Exact hits, cheap and dear relatives of the cached orders, unrelated
#: orders, and (over an ordered source) pass-throughs and modifications.
#: Over the unordered source A,D,C is where ``WIN_MARGIN`` decides: a
#: cached order is cheaper than a full sort, but not by the margin.
POOL = [
    SortSpec.of("B", "A", "C", "D"),
    SortSpec.of("B", "A"),
    SortSpec.of("B", "A", "D", "C"),
    SortSpec.of("B", "C"),
    SortSpec.of("D", "C", "B", "A"),
    SortSpec.of("A", "B"),
    SortSpec.of("A", "C", "B"),
    SortSpec.of("A", "D", "C"),
    SortSpec.of("C", "A", "B"),
]
#: B,A last: it is installed as a modify-from-cache of B,A,C,D, so both
#: price at zero for a B,A request and only the exact hit may win.
CACHED = [
    SortSpec.of("B", "A", "C", "D"),
    SortSpec.of("D", "C", "A", "B"),
    SortSpec.of("B", "A"),
]


def _warm(source, state, spill_dir):
    """Install ``CACHED`` for ``source``, every entry left in ``state``."""
    cfg = ExecutionConfig(cache="on")
    cache = configure_cache(
        budget=None if state == "memo" else 1, spill_dir=spill_dir
    )
    for spec in CACHED:
        Sort(TableScan(source), spec, config=cfg).to_table()
    if state == "spilled":
        other = random_table(SCHEMA, 50, domains=DOMAINS, seed=99)
        Sort(TableScan(other), SortSpec.of("D"), config=cfg).to_table()
    fp = fingerprint_table(source)
    got = {c.spec: c.state for c in cache.candidates(fp)}
    assert set(got) == set(CACHED)
    if state != "flat":  # a one-byte budget spills all but the newest
        assert set(got.values()) == {state}
    else:
        assert got[CACHED[-1]] == "flat"
    return cfg


@pytest.mark.parametrize("ordered", [False, True], ids=["unordered", "ordered"])
@pytest.mark.parametrize("state", ["memo", "flat", "spilled"])
def test_parent_choice_is_the_dispatchers(state, ordered, tmp_path):
    """Each order of a batch is derived as a solo cached ``Sort`` would
    have derived it: same parent, same label, same answer."""
    if ordered:
        source = _sorted_source(500, seed=4)
    else:
        source = random_table(SCHEMA, 500, domains=DOMAINS, seed=4)
    kinds = set()
    for spec in POOL:
        cfg = _warm(source, state, str(tmp_path))
        batch = derive_batch(source, [spec], config=cfg)
        node = batch.result_for(spec)
        assert not node.fallback

        _warm(source, state, str(tmp_path))
        op = Sort(TableScan(source), spec, config=cfg)
        solo = op.to_table()
        assert node.label == op.order_strategy, spec
        planned = batch.plan.nodes[batch.plan.spec_nodes[spec]].strategy
        assert planned == node.label.split("(")[0], spec
        assert node.table.rows == solo.rows and node.table.ovcs == solo.ovcs
        kinds.add(node.label.split("(")[0])
    if ordered:  # the source is its own parent: only exact hits differ
        assert kinds == {"cache-hit", "passthrough", "modify"}
    else:
        assert kinds == {"cache-hit", "modify-from-cache", "full-sort"}


#: The end-to-end benchmark's source order and eight target orders.
BENCH_BASE = SortSpec.of("A", "B", "C", "D")
BENCH_ORDERS = [
    SortSpec.of(*order) for order in
    ("ABDC", "ACBD", "ACDB", "ADBC", "BACD", "BADC", "CDAB", "DCBA")
]


def _bench_source(ordered):
    """2^12 rows over the benchmark's normal-source domains."""
    domains = (8, 8, 16, 64)
    if ordered:
        return random_sorted_table(SCHEMA, BENCH_BASE, 4096, domains, seed=1)
    return random_table(SCHEMA, 4096, domains=domains, seed=1)


def _serve_label(cache, source, spec):
    outcome = serve(cache, source, spec, stats=ComparisonStats(),
                    config=ExecutionConfig(cache="on"))
    return outcome.label


def test_an_ordered_source_is_its_own_parent():
    """Every benchmark target with every cached sibling, one sibling at
    a time: an exact hit or a miss, never modify-from-cache, through
    the solo dispatcher and the batch planner alike."""
    source = _bench_source(ordered=True)
    cfg = ExecutionConfig(cache="on")
    fp = fingerprint_table(source)
    for sibling in BENCH_ORDERS:
        cache = configure_cache()
        Sort(TableScan(source), sibling, config=cfg).to_table()
        for target in BENCH_ORDERS:
            exact = target == sibling
            label = _serve_label(cache, source, target)
            assert label == (f"cache-hit({','.join(target.names)})"
                             if exact else None), (sibling, target)
            plan = plan_batch(source, [target], cache=cache, fingerprint=fp)
            (node,) = _requested(plan)
            assert node.strategy == ("cache-hit" if exact else "modify")
        assert cache.counters()["installs"] == 1  # nothing was derived


def test_an_unordered_source_still_modifies_a_cached_order():
    """The benchmark's ``cache.modify_from`` layer probe: BASE cached
    for an unordered source, then ABDC is derived from it, not sorted."""
    source = _bench_source(ordered=False)
    cache = configure_cache()
    Sort(TableScan(source), BENCH_BASE,
         config=ExecutionConfig(cache="on")).to_table()
    target = SortSpec.of("A", "B", "D", "C")
    plan = plan_batch(source, [target], cache=cache,
                      fingerprint=fingerprint_table(source))
    (node,) = _requested(plan)
    assert node.strategy == "modify-from-cache"
    assert node.edge_cost < node.baseline_cost
    assert _serve_label(cache, source, target) == "modify-from-cache(A,B,C,D)"


@pytest.mark.parametrize("edit", ["in-place", "re-assigned"])
def test_row_edit_recomputes_estimates(edit):
    """Cached parents belong to one row sequence: an edit in place
    raises, and the table the same edit makes through ``replace`` is
    priced — and answered — like a fresh table's."""
    cfg = ExecutionConfig(cache="on")
    configure_cache(budget=1 << 22)
    source = random_table(SCHEMA, 600, domains=DOMAINS, seed=6)
    Sort(TableScan(source), SortSpec.of("C", "D", "A", "B"), config=cfg) \
        .to_table()
    target = SortSpec.of("C", "D", "B", "A")
    before = derive_batch(source, [target], config=cfg)
    assert before.result_for(target).label == "modify-from-cache(C,D,A,B)"

    keep = 10
    if edit == "in-place":
        rows = list(source.rows)
        for i in range(keep, len(rows)):
            rows[i] = rows[i - keep]
        with pytest.raises(TypeError):
            source.rows[keep] = rows[keep]
    else:
        rows = source.rows[keep:] + source.rows[:keep]
        with pytest.raises(FrozenInstanceError):
            source.rows = rows
    source = replace(source, rows=rows)
    after = derive_batch(source, [target], config=cfg)
    fresh = plan_batch(Table(SCHEMA, list(source.rows)), [target])
    assert _costs(after.plan) == _costs(fresh)
    node = after.result_for(target)
    assert node.label == "full-sort"
    assert_table_valid(node.table)
    assert_stable_sort_of(source.rows, node.table)
    want = sorted(source.rows, key=target.key_for(SCHEMA))
    assert node.table.rows == tuple(want)


# -------------------------------------------------------------- concurrency


def _fresh_costs(source):
    """The plan of a table that remembers nothing about ``source``."""
    twin = Table(source.schema, list(source.rows), source.sort_spec,
                 list(source.ovcs))
    return _costs(plan_batch(twin, ROTATIONS))


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
