"""End-to-end acceptance through Query.order_by: repeat order traffic is
served from the cache, bit-identical to uncached execution."""

from __future__ import annotations

import os
import random

from repro.cache import configure_cache, get_cache, reset_cache
from repro.exec import ExecutionConfig
from repro.model import Schema, Table
from repro.query import Query


SCHEMA = Schema.of("A", "B", "C", "D")
ORDERS = [("A", "B", "C"), ("A", "C", "B"), ("B", "A", "C")]

OFF = ExecutionConfig(cache="off")
ON = ExecutionConfig(cache="on")


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

    round1 = {}
    for o in ORDERS:
        out, op = _run(table, o, ON)
        round1[o] = (out, op.order_strategy, op.stats.snapshot())
        assert out.rows == cold[o].rows
        assert out.ovcs == cold[o].ovcs

    for o in ORDERS:
        out, op = _run(table, o, ON)
        assert op.executed == "cache"
        assert op.order_strategy.startswith("cache-hit(")
        assert out.rows == cold[o].rows
        assert out.ovcs == cold[o].ovcs
        # Counter replay: identical to what round one spent on this
        # order, and — for orders whose entry came from the uncached
        # execution path — identical to cache=off.
        assert op.stats.snapshot() == round1[o][2]

    # The first-seen order ran cold (installing); siblings were served
    # by modifying it.
    strategies = [round1[o][1] for o in ORDERS]
    assert strategies[0] == "full-sort"
    assert strategies[1] == "modify-from-cache(A,B,C)"
    assert strategies[2] == "modify-from-cache(A,B,C)"


def test_first_order_counters_match_uncached_exactly():
    table = _table(seed=11)
    order = ORDERS[0]
    _cold_out, cold_op = _run(table, order, OFF)
    _warm_out, warm_op = _run(table, order, ON)  # cold install
    hit_out, hit_op = _run(table, order, ON)  # exact hit
    assert hit_op.executed == "cache"
    assert hit_op.stats.snapshot() == cold_op.stats.snapshot()
    assert hit_out.rows == _cold_out.rows
    assert hit_out.ovcs == _cold_out.ovcs


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
    spill and rehydration; every re-request stays bit-identical (rows,
    codes, counters) and no spill files leak."""
    budget = 32 << 10
    configure_cache(budget=budget, spill_dir=str(tmp_path))
    auto = ExecutionConfig(cache="auto")
    # ~3 sources x 3 orders of 3000 rows: 9 x ~12 KiB of flat forms.
    tables = [_table(n=3000, seed=s) for s in (1, 2, 3)]
    cold = {
        (i, o): _run(t, o, OFF)[0]
        for i, t in enumerate(tables)
        for o in ORDERS
    }

    first = {}
    for i, t in enumerate(tables):
        for o in ORDERS:
            _out, op = _run(t, o, auto)
            first[(i, o)] = op.stats.snapshot()

    cache = get_cache()
    counters = cache.counters()
    assert counters["spills"] > 0
    assert cache.bytes_resident <= budget

    # Everything cached (resident or spilled) serves bit-identically.
    rehydrates_before = counters["rehydrates"]
    for i, t in enumerate(tables):
        for o in ORDERS:
            out, op = _run(t, o, auto)
            assert op.executed == "cache"
            assert out.rows == cold[(i, o)].rows
            assert out.ovcs == cold[(i, o)].ovcs
            assert op.stats.snapshot() == first[(i, o)]
    assert cache.counters()["rehydrates"] > rehydrates_before

    reset_cache()
    leaked = [
        os.path.join(root, f)
        for root, _dirs, files in os.walk(tmp_path)
        for f in files
    ]
    assert leaked == []


def test_cache_off_and_auto_without_cache_stay_cold():
    table = _table()
    _out, op = _run(table, ORDERS[0], OFF)
    assert op.executed == "internal_sort"
    assert get_cache() is None
    # auto without a configured cache: stays cold, creates nothing.
    _out, op = _run(table, ORDERS[0], ExecutionConfig(cache="auto"))
    assert op.executed == "internal_sort"
    assert get_cache() is None


def test_forced_method_and_no_ovc_bypass_cache():
    table = _table()
    _run(table, ORDERS[0], ON)  # warm
    _out, op = _run(table, ORDERS[0], ON)
    assert op.executed == "cache"
    # A forced method must not consult the cache.
    q = Query(table).order_by(*ORDERS[0], method="full_sort", config=ON)
    q.to_table()
    assert q.op.executed != "cache"
