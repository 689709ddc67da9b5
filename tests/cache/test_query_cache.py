"""End-to-end acceptance through Query.order_by: repeat order traffic is
served from the cache, bit-identical to uncached execution."""

from __future__ import annotations

import os
import random

import pytest

from repro.cache import configure_cache, get_cache, reset_cache
from repro.exec import ExecutionConfig
from repro.model import Schema, Table
from repro.ovc.stats import ComparisonStats
from repro.query import Query


SCHEMA = Schema.of("A", "B", "C", "D")
ORDERS = [("A", "B", "C"), ("A", "C", "B"), ("B", "A", "C")]

OFF = ExecutionConfig(cache="off")
ON = ExecutionConfig(cache="on")
REF_OFF = OFF.with_(engine="reference")
REF_ON = ON.with_(engine="reference")


def _table(n=400, seed=7) -> Table:
    rng = random.Random(seed)
    rows = [
        (rng.randrange(6), rng.randrange(6), rng.randrange(4),
         rng.randrange(100))
        for _ in range(n)
    ]
    return Table(SCHEMA, rows)


def _run(table: Table, order: tuple, config: ExecutionConfig):
    q = Query(table).order_by(*order, config=config)
    out = q.to_table()
    return out, q.op


def test_acceptance_three_orders_twice():
    """The issue's acceptance scenario: three sort orders issued twice;
    with cache=on every second-round order is served from the cache,
    bit-identical to cache=off."""
    table = _table()
    cold = {o: _run(table, o, OFF)[0] for o in ORDERS}

    strategies = []
    for o in ORDERS:
        out, op = _run(table, o, ON)
        strategies.append(op.order_strategy)
        assert out.rows == cold[o].rows
        assert out.ovcs == cold[o].ovcs

    for o in ORDERS:
        out, op = _run(table, o, ON)
        assert op.executed == "cache"
        assert op.order_strategy.startswith("cache-hit(")
        assert out.rows == cold[o].rows
        assert out.ovcs == cold[o].ovcs

    # The first-seen order ran cold (installing); siblings were served
    # by modifying it.
    assert strategies[0] == "full-sort"
    assert strategies[1] == "modify-from-cache(A,B,C)"
    assert strategies[2] == "modify-from-cache(A,B,C)"


def test_first_order_counters_match_uncached_exactly():
    # The installing execution counts exactly what an uncached one does.
    table = _table(seed=11)
    order = ORDERS[0]
    cold_out, cold_op = _run(table, order, REF_OFF)
    warm_out, warm_op = _run(table, order, REF_ON)  # cold install
    assert warm_op.order_strategy == "full-sort"
    assert cold_op.stats.row_comparisons > 0
    assert warm_op.stats.snapshot() == cold_op.stats.snapshot()
    assert (warm_out.rows, warm_out.ovcs) == (cold_out.rows, cold_out.ovcs)


def test_reference_engine_hit_counts_nothing():
    # op.stats counts the comparisons this call made: a hit made none.
    table = _table(seed=12)
    order = ORDERS[1]
    cold_out, _ = _run(table, order, REF_OFF)
    _run(table, order, REF_ON)  # install
    hit_out, hit_op = _run(table, order, REF_ON)
    assert hit_op.order_strategy == "cache-hit(A,C,B)"
    assert (hit_out.rows, hit_out.ovcs) == (cold_out.rows, cold_out.ovcs)
    assert hit_op.stats == ComparisonStats()


def test_modify_from_cache_counts_its_own_work():
    # Over an unordered source a sibling is derived from a cached order:
    # that modify is real work and is counted; a repeat of the derived
    # order is then a hit and counts nothing.
    table = _table(seed=13)
    _run(table, ORDERS[0], REF_ON)  # install the parent
    cold_out, _ = _run(table, ORDERS[1], REF_OFF)
    out, op = _run(table, ORDERS[1], REF_ON)
    assert op.order_strategy == "modify-from-cache(A,B,C)"
    assert op.stats.row_comparisons > 0
    assert (out.rows, out.ovcs) == (cold_out.rows, cold_out.ovcs)
    _again, hit_op = _run(table, ORDERS[1], REF_ON)
    assert hit_op.order_strategy == "cache-hit(A,C,B)"
    assert hit_op.stats == ComparisonStats()


def test_explain_shows_order_strategy():
    table = _table()
    q1 = Query(table).order_by(*ORDERS[0], config=ON)
    q1.to_table()
    assert "[strategy: full-sort]" in q1.explain()

    q2 = Query(table).order_by(*ORDERS[1], config=ON)
    q2.to_table()
    assert "[strategy: modify-from-cache(A,B,C)]" in q2.explain()

    q3 = Query(table).order_by(*ORDERS[1], config=ON)
    q3.to_table()
    assert "[strategy: cache-hit(A,C,B)]" in q3.explain()

    # Before execution there is nothing to report.
    assert "strategy" not in Query(table).order_by("A").explain()


def test_explain_analyze_shows_order_strategy():
    from repro.trace import explain_analyze

    table = _table()
    _run(table, ORDERS[0], ON)  # warm the cache
    q = Query(table).order_by(*ORDERS[0], config=ON)
    rows, report = explain_analyze(q.op)
    assert "[strategy: cache-hit(A,B,C)]" in report
    assert len(rows) == len(table.rows)


def test_eviction_and_spill_under_1mib_budget(tmp_path):
    """Satellite: a budget far under 1 MiB — an entry is a permutation
    plus flat code arrays, ~4 bytes a row, so 1 MiB would hold all nine
    of these; 32 KiB holds two or three — forces memo drops, then disk
    spill and rehydration; every re-request stays bit-identical (rows
    and codes) and no spill files leak.  ``cache="on"`` reuses the
    cache configured here."""
    budget = 32 << 10
    configure_cache(budget=budget, spill_dir=str(tmp_path))
    # ~3 sources x 3 orders of 3000 rows: 9 x ~12 KiB of flat forms.
    tables = [_table(n=3000, seed=s) for s in (1, 2, 3)]
    cold = {
        (i, o): _run(t, o, OFF)[0]
        for i, t in enumerate(tables)
        for o in ORDERS
    }

    for t in tables:
        for o in ORDERS:
            _run(t, o, ON)

    cache = get_cache()
    counters = cache.counters()
    assert counters["spills"] > 0
    assert cache.bytes_resident <= budget

    # Everything cached (resident or spilled) serves bit-identically.
    rehydrates_before = counters["rehydrates"]
    for i, t in enumerate(tables):
        for o in ORDERS:
            out, op = _run(t, o, ON)
            assert op.executed == "cache"
            assert out.rows == cold[(i, o)].rows
            assert out.ovcs == cold[(i, o)].ovcs
    assert cache.counters()["rehydrates"] > rehydrates_before

    reset_cache()
    leaked = [
        os.path.join(root, f)
        for root, _dirs, files in os.walk(tmp_path)
        for f in files
    ]
    assert leaked == []


def test_cache_off_stays_cold_and_auto_is_rejected():
    table = _table()
    _out, op = _run(table, ORDERS[0], OFF)
    assert op.executed == "internal_sort"
    assert get_cache() is None
    # There is no "use it only if it exists" mode: off or on.
    with pytest.raises(ValueError, match="unknown cache mode"):
        ExecutionConfig(cache="auto")


def test_forced_method_and_no_ovc_bypass_cache():
    table = _table()
    _run(table, ORDERS[0], ON)  # warm
    _out, op = _run(table, ORDERS[0], ON)
    assert op.executed == "cache"
    # A forced method must not consult the cache.
    q = Query(table).order_by(*ORDERS[0], method="full_sort", config=ON)
    q.to_table()
    assert q.op.executed != "cache"
