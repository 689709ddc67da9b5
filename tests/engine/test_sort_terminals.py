"""Sort's two terminals are one execution: ``to_table()`` and iteration
agree on everything, and what they hand out nobody can change."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

from repro.cache import reset_cache
from repro.engine import Sort, TableScan
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs
from repro.query import Query
from repro.testing import assert_stable_sort_of, assert_table_valid
from repro.trace import Probe, instrument
from repro.workloads.generators import random_table

SCHEMA = Schema.of("A", "B", "C", "D")
BASE = SortSpec.of("A", "B", "C", "D")
TARGET = SortSpec.of("A", "C", "B")
SIBLING = SortSpec.of("A", "C", "D")


@pytest.fixture(autouse=True)
def _fresh_cache():
    reset_cache()
    yield
    reset_cache()


def _unsorted(n=300, seed=3) -> Table:
    return random_table(SCHEMA, n, domains=[4, 6, 5, 3], seed=seed)


def _sorted(n=300, seed=3) -> Table:
    rows = sorted(_unsorted(n, seed).rows)
    return Table(SCHEMA, rows, BASE, derive_ovcs(rows, (0, 1, 2, 3)))


def _passthrough(cfg):
    return Sort(TableScan(_sorted()), SortSpec.of("A", "B"), config=cfg)


def _external(cfg):
    return Sort(TableScan(_unsorted()), TARGET, memory_capacity=64, fan_in=4,
                config=cfg)


def _cache_hit(cfg):
    source = _unsorted()
    Sort(TableScan(source), TARGET, config=cfg).to_table()
    return Sort(TableScan(source), TARGET, config=cfg)


def _modify_from_cache(cfg):
    source = _unsorted()
    Sort(TableScan(source), SIBLING, config=cfg).to_table()
    return Sort(TableScan(source), TARGET, config=cfg)


def _modify(cfg):
    return Sort(TableScan(_sorted()), TARGET, config=cfg)


def _full_sort(cfg):
    return Sort(TableScan(_unsorted()), TARGET, config=cfg)


#: path -> (builder, its source, needs the cache, expected order_strategy)
PATHS = {
    "passthrough": (_passthrough, _sorted, False, "passthrough"),
    "external-sort": (_external, _unsorted, False, "external-sort"),
    "cache-hit": (_cache_hit, _unsorted, True, "cache-hit(A,C,B)"),
    "modify-from-cache": (_modify_from_cache, _unsorted, True,
                          "modify-from-cache(A,C,D)"),
    "modify": (_modify, _sorted, False, "modify(A,B,C,D)"),
    "full-sort": (_full_sort, _unsorted, False, "full-sort"),
}


@pytest.mark.parametrize("engine", ["auto", "reference"])
@pytest.mark.parametrize("path", sorted(PATHS))
def test_to_table_and_iteration_agree(path, engine):
    build, make_source, cached, strategy = PATHS[path]
    cfg = ExecutionConfig(engine=engine, cache="on" if cached else "off")

    op_t = build(cfg)
    table = op_t.to_table()
    reset_cache()
    op_i = build(cfg)
    pairs = list(op_i)

    assert op_t.order_strategy == op_i.order_strategy == strategy
    assert op_t.executed == op_i.executed
    assert op_t.stats.as_dict() == op_i.stats.as_dict()
    assert table.rows == tuple(row for row, _ovc in pairs)
    assert table.ovcs == tuple(ovc for _row, ovc in pairs)
    assert table.sort_spec == op_t.ordering and table.schema == SCHEMA
    # ... and both are the oracle's answer.
    spec = op_t.ordering
    source = make_source()
    assert_table_valid(table)
    assert_stable_sort_of(source.rows, table)
    expected = sorted(source.rows, key=spec.key_for(SCHEMA))
    assert table.rows == tuple(expected)
    assert table.ovcs == tuple(derive_ovcs(
        expected, spec.positions(SCHEMA), spec.directions
    ))


@pytest.mark.parametrize("use_ovc", [True, False])
def test_terminals_agree_without_codes_and_on_empty_input(use_ovc):
    cfg = ExecutionConfig(engine="reference" if not use_ovc else "auto")
    for source in (_unsorted(40), Table(SCHEMA, [])):
        op_t = Sort(TableScan(source), TARGET, use_ovc=use_ovc, config=cfg)
        op_i = Sort(TableScan(source), TARGET, use_ovc=use_ovc, config=cfg)
        table, pairs = op_t.to_table(), list(op_i)
        assert table.rows == tuple(row for row, _ovc in pairs)
        assert (table.ovcs or ()) == tuple(o for _r, o in pairs if o is not None)
        if source.rows and not use_ovc:
            assert table.ovcs is None


def test_instrumented_sort_reports_the_same_probes():
    """A Probe-wrapped child is not a TableScan: Sort re-collects it
    pair by pair (missing the memo), and every probe still counts."""
    source = _sorted()
    root = instrument(Sort(TableScan(source), TARGET))
    assert isinstance(root, Probe) and isinstance(root.inner, Sort)
    child = root.inner._children()[0]
    assert isinstance(child, Probe) and isinstance(child.inner, TableScan)

    pairs = list(root)
    assert root.rows_out == child.rows_out == len(source.rows)
    assert root.inner.order_strategy == "modify(A,B,C,D)"
    plain = Sort(TableScan(source), TARGET).to_table()
    assert tuple(row for row, _ovc in pairs) == plain.rows
    assert tuple(ovc for _row, ovc in pairs) == plain.ovcs

    # The same through to_table() on the instrumented plan.
    root = instrument(Sort(TableScan(source), TARGET))
    table = root.to_table()
    assert root.rows_out == len(source.rows)
    assert root.inner._children()[0].rows_out == len(source.rows)
    assert (table.rows, table.ovcs) == (plain.rows, plain.ovcs)


# ---------------------------------------------------------------- aliasing


def _scribble(table: Table) -> None:
    """Every way of changing a response raises."""
    with pytest.raises(AttributeError):
        table.rows.reverse()
    with pytest.raises(AttributeError):
        table.rows.append(("junk",) * 4)
    if table.ovcs is not None:
        with pytest.raises(AttributeError):
            table.ovcs.clear()
    with pytest.raises(FrozenInstanceError):
        table.rows = []


@pytest.mark.parametrize("cache", ["off", "on"])
@pytest.mark.parametrize("ordered", [False, True])
def test_responses_own_their_lists(cache, ordered):
    """No response can be changed, so none can change the caller's
    source or the next answer to the same request (cold, install, then
    exact hits), whatever it shares with them."""
    cfg = ExecutionConfig(cache=cache)
    source = _sorted() if ordered else _unsorted()
    rows, ovcs = source.rows, source.ovcs
    expected = tuple(sorted(rows, key=TARGET.key_for(SCHEMA)))
    codes = tuple(
        derive_ovcs(expected, TARGET.positions(SCHEMA), TARGET.directions)
    )

    for _round in range(3):
        for run in (
            lambda: Sort(TableScan(source), TARGET, config=cfg).to_table(),
            lambda: Query(source).order_by(
                *TARGET.names, config=cfg).to_table(),
        ):
            out = run()
            assert out.rows == expected and out.ovcs == codes
            assert_table_valid(out)
            assert_stable_sort_of(source.rows, out)
            _scribble(out)
            assert source.rows is rows and source.ovcs is ovcs


def test_one_row_and_empty_responses_own_their_lists():
    cfg = ExecutionConfig(cache="on")
    for rows in ((), ((1, 2, 3, 4),)):
        source = Table(SCHEMA, list(rows))
        for _round in range(2):
            out = Sort(TableScan(source), TARGET, config=cfg).to_table()
            assert out.rows == rows
            assert_table_valid(out)
            _scribble(out)
            assert source.rows == rows
