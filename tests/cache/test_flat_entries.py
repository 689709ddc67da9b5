"""Differential suite for the order cache's entry form.

An entry is a permutation of the request's row sequence plus a code
book (the distinct codes, one id per row); the row and code lists are a
droppable memo of that.  Whatever
state an entry is read in — memo, flat, spilled — and whichever way a
request is answered (miss, exact hit, modify-from-cache), the response
must equal the one right answer: a stable ``sorted()`` of the source
and codes derived from scratch, handed over as plain lists of tuples.
"""

from __future__ import annotations

import operator
import os
import random
import sys
import threading
import time
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    configure_cache, fingerprint_rows, fingerprint_table, get_cache,
)
from repro.cache.store import (
    ENTRY_BYTES, OrderCache, _code_book, _codes, _offset_counts, _perm_of,
)
from repro.core.enforce import enforce_order
from repro.engine.scans import TableScan
from repro.engine.sort_op import Sort
from repro.exec import ExecutionConfig
from repro.fastpath.packed import pack_codes, unpack_codes
from repro.model import Schema, SortSpec, Table
from repro.obs import METRICS
from repro.ovc.derive import derive_ovcs
from repro.ovc.stats import ComparisonStats
from repro.serve import OrderService

SCHEMA = Schema.of("A", "B", "C", "D")

# The eight prototype cases of Table 1 (input order -> output order).
TABLE1 = {
    0: (("A", "B"), ("A",)),
    1: (("A",), ("A", "B")),
    2: (("A", "B"), ("B",)),
    3: (("A", "B"), ("B", "A")),
    4: (("A", "B", "C"), ("A", "C")),
    5: (("A", "B", "C"), ("A", "C", "B")),
    6: (("A", "B", "C", "D"), ("A", "C", "D")),
    7: (("A", "B", "C", "D"), ("A", "C", "B", "D")),
}
ENGINES = ("auto", "reference", "fast")
N = 96
NAN = float("nan")


def _rows(variant: str, seed: int) -> list[tuple]:
    rng = random.Random(seed)

    def row(a, b, c, d):
        return (a, b, c, d)

    if variant == "empty":
        return []
    if variant == "one-row":
        return [row(1, 2, 3, 4)]
    if variant == "one-segment":  # constant leading column
        return [row(7, rng.randrange(4), rng.randrange(4), rng.randrange(9))
                for _ in range(N)]
    if variant == "heavy-tie":  # at most N/8 distinct rows
        pool = [row(rng.randrange(3), rng.randrange(3), rng.randrange(2), 0)
                for _ in range(N // 8)]
        return [rng.choice(pool) for _ in range(N)]
    if variant == "desc-strings":
        return [row(rng.randrange(4), f"s{rng.randrange(5):02d}",
                    rng.randrange(4), f"t{rng.randrange(20):02d}")
                for _ in range(N)]
    if variant == "mixed":
        # B is a str where A == 0, an int where A == 1, None where
        # A == 2: comparable only inside an A-segment, which is all an
        # order led by A ever compares.  The key packer cannot rank it.
        def b(a):
            return (f"s{rng.randrange(4)}", rng.randrange(4), None)[a]

        return [row(a, b(a), rng.randrange(4), rng.randrange(9))
                for a in (rng.randrange(3) for _ in range(N))]
    if variant == "nan":
        rows = [row(rng.randrange(4), rng.randrange(4), rng.randrange(4),
                    float(rng.randrange(9))) for _ in range(N)]
        rows[N // 2] = row(2, 1, 3, NAN)
        return rows
    if variant == "big-values":  # code values beyond a machine word
        return [row(rng.randrange(4), (1 << 70) + rng.randrange(5),
                    rng.randrange(4), -(1 << 66) - rng.randrange(7))
                for _ in range(N)]
    if variant == "int-float-bool":
        # 1, 1.0 and True are equal and hash alike: codes (d, 1),
        # (d, 1.0) and (d, True) must each come back as they were.
        pool = (0, 1, 1.0, True, 2)
        return [row(*(rng.choice(pool) for _ in range(4))) for _ in range(N)]
    if variant == "all-distinct":  # every code of every order distinct
        columns = [rng.sample(range(1000), N) for _ in range(4)]
        return [row(*cells) for cells in zip(*columns)]
    assert variant == "normal"
    return [row(rng.randrange(5), rng.randrange(5), rng.randrange(4),
                rng.randrange(30)) for _ in range(N)]


VARIANTS = (
    "normal", "heavy-tie", "desc-strings", "mixed", "nan", "big-values",
    "int-float-bool", "all-distinct", "empty", "one-row", "one-segment",
)


def _spec(columns, variant: str) -> SortSpec:
    if variant == "desc-strings":
        columns = [f"{c} DESC" if c == "B" else c for c in columns]
    return SortSpec(columns)


def _oracle(rows, spec: SortSpec):
    out = sorted(rows, key=spec.key_for(SCHEMA))
    return tuple(out), tuple(
        derive_ovcs(out, spec.positions(SCHEMA), spec.directions)
    )


def _source(rows: list, spec: SortSpec | None) -> Table:
    """The rows as a table sorted on ``spec`` with codes (or as is)."""
    if spec is None:
        return Table(SCHEMA, list(rows))
    out, ovcs = _oracle(rows, spec)
    return Table(SCHEMA, out, spec, ovcs)


def _honest(table: Table) -> None:
    """Tuples of tuples, complete at return time."""
    assert type(table.rows) is tuple and type(table.ovcs) is tuple
    assert len(table.rows) == len(table.ovcs)
    assert all(type(r) is tuple for r in table.rows)
    assert all(type(c) is tuple and len(c) == 2 for c in table.ovcs)


def _nan_free(ovcs: list) -> list:
    return [(off, "nan" if value != value else value) for off, value in ovcs]


def _types(ovcs: list) -> list:
    return [type(value) for _off, value in ovcs]


def _same(table: Table, want, types: bool = True) -> None:
    _honest(table)
    rows, ovcs = want
    # Rows are the source's own tuple objects, whatever the entry's
    # state.  NaN is unequal to itself, and a code value that went
    # through a spill file is another float object.  Equal values of
    # other types (1, 1.0, True) must not stand in for each other.
    assert len(table.rows) == len(rows)
    assert all(map(operator.is_, table.rows, rows))
    assert _nan_free(table.ovcs) == _nan_free(ovcs)
    if types:
        assert _types(table.ovcs) == _types(ovcs)


#: Variants answered against the engine's own cold run.  Where a NaN
#: lands depends on the comparisons an algorithm makes.  Of rows equal
#: under a key that hold 1, 1.0 or True, which one's value a code
#: carries does too; those codes still equal a fresh derivation.
COLD_ORACLE = ("nan", "int-float-bool")


def _want(source: Table, spec: SortSpec, variant: str, engine: str):
    """The answer a request must get: the oracle's, or for
    :data:`COLD_ORACLE` variants the engine's uncached one."""
    if variant not in COLD_ORACLE:
        return _oracle(source.rows, spec)
    out = _request(source, spec, ExecutionConfig(engine=engine))[0]
    if variant != "nan":
        _same(out, _oracle(source.rows, spec), types=False)
    return out.rows, out.ovcs


def _request(source: Table, spec: SortSpec, cfg: ExecutionConfig):
    op = Sort(TableScan(source), spec, config=cfg)
    return op.to_table(), op


def _state(source: Table, spec: SortSpec) -> str | None:
    found = [c.state for c in get_cache().candidates(fingerprint_table(source))
             if c.spec == spec]
    return found[0] if found else None


def _skip(variant: str, engine: str, *orders) -> bool:
    if variant == "mixed":
        # Orders not led by A compare a str with an int or None: no
        # oracle exists; and a forced fast engine raises by contract.
        return engine == "fast" or any(o[0] != "A" for o in orders)
    return False


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("case", sorted(TABLE1))
def test_every_entry_state_serves_the_oracle(case, variant, engine, tmp_path):
    """Miss -> hit from memo; then, under a one-byte budget, hit from
    flat -> spilled to disk -> rehydrated hit: the same answer each time."""
    in_cols, out_cols = TABLE1[case]
    if _skip(variant, engine, in_cols, out_cols):
        pytest.skip("no total order over the mixed column")
    in_spec, out_spec = _spec(in_cols, variant), _spec(out_cols, variant)
    rows = _rows(variant, seed=case)
    # A NaN key has no place in a sorted input; it arrives unordered.
    source = _source(rows, None if variant == "nan" else in_spec)
    cfg = ExecutionConfig(cache="on", engine=engine)
    want = _want(source, out_spec, variant, engine)
    passthrough = source.sort_spec is not None \
        and source.sort_spec.satisfies(out_spec)

    # Unlimited budget: miss, then a hit on the memo-holding entry.
    cache = configure_cache(spill_dir=str(tmp_path))
    out, op = _request(source, out_spec, cfg)
    _same(out, want)
    if passthrough:
        assert op.executed == "passthrough" and len(cache) == 0
        return
    assert op.executed != "cache" and cache.counters()["installs"] == 1
    assert _state(source, out_spec) == "memo"
    out, op = _request(source, out_spec, cfg)
    assert op.order_strategy.startswith("cache-hit(")
    _same(out, want)
    # A response shares the entry's tuples: nobody can scribble on them.
    with pytest.raises(AttributeError):
        out.rows.reverse()
    with pytest.raises(AttributeError):
        out.ovcs.clear()
    _same(_request(source, out_spec, cfg)[0], want)

    # One-byte budget: an install keeps only its own flat form.
    cache = configure_cache(budget=1, spill_dir=str(tmp_path))
    _same(_request(source, out_spec, cfg)[0], want)  # miss, memo dropped
    if not rows:
        assert cache.bytes_resident == ENTRY_BYTES  # no rows, no cells
        return
    assert _state(source, out_spec) == "flat"
    assert 0 < cache.bytes_resident - ENTRY_BYTES <= 21 * len(rows)
    out, op = _request(source, out_spec, cfg)  # hit from flat
    assert op.order_strategy.startswith("cache-hit(")
    _same(out, want)
    assert _state(source, out_spec) == "flat"  # no room to re-memoize
    assert cache.counters()["spills"] == 0

    # Another source's install pushes this entry's arrays to disk.
    other = _source(_rows("normal", seed=99), None)
    other_spec = SortSpec.of("D", "C")
    _same(_request(other, other_spec, cfg)[0], _oracle(other.rows, other_spec))
    assert _state(source, out_spec) == "spilled"
    assert cache.counters()["spills"] == 1 and os.listdir(tmp_path)
    out, op = _request(source, out_spec, cfg)  # hit from disk
    assert op.order_strategy.startswith("cache-hit(")
    _same(out, want)
    assert cache.counters()["rehydrates"] == 1
    assert cache.counters()["hits"] == 2

    cache.close()
    assert cache.accountant.used == 0
    assert not any(cache.accountant.by_category.values())
    assert not [f for _r, _d, fs in os.walk(tmp_path) for f in fs]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("case", sorted(TABLE1))
def test_modify_from_a_cached_order_in_every_state(
    case, variant, engine, tmp_path
):
    """An unordered source with the case's input order cached (memo,
    flat or on disk); the output order is then derived from it."""
    in_cols, out_cols = TABLE1[case]
    if _skip(variant, engine, in_cols, out_cols):
        pytest.skip("no total order over the mixed column")
    if variant == "nan" and "D" in in_cols:
        # Where NaN lands depends on which comparisons an algorithm
        # makes: deriving from a sibling and sorting from scratch need
        # not agree.  With D outside the keys the NaN only rides along.
        pytest.skip("no total order over a NaN key")
    in_spec, out_spec = _spec(in_cols, variant), _spec(out_cols, variant)
    source = _source(_rows(variant, seed=10 + case), None)
    cfg = ExecutionConfig(cache="on", engine=engine)
    want = {s: _want(source, s, variant, engine) for s in (in_spec, out_spec)}
    other = _source(_rows("normal", seed=98), None)
    served = Counter()

    for state in ("memo", "flat", "spilled"):
        cache = configure_cache(
            budget=None if state == "memo" else 1, spill_dir=str(tmp_path)
        )
        _same(_request(source, in_spec, cfg)[0], want[in_spec])
        if state == "spilled":
            _request(other, SortSpec.of("D"), cfg)
        if source.rows:
            assert _state(source, in_spec) == state
        out, op = _request(source, out_spec, cfg)
        derived = op.order_strategy.startswith("modify-from-cache")
        # A derived order's codes may carry a tied row's 1.0 where a
        # cold sort's carry its 1: equal, of another type.
        _same(out, want[out_spec], types=not derived)
        served[op.order_strategy.split("(")[0]] += 1
        if derived:
            # The derived order was installed, as a permutation of the
            # same source, and serves the next request verbatim.
            hit = cache.lookup(fingerprint_table(source), out_spec)
            assert tuple(source.rows[i] for i in hit.perm) == want[out_spec][0]
            again, op = _request(source, out_spec, cfg)
            assert op.order_strategy.startswith("cache-hit(")
            _same(again, (out.rows, out.ovcs))
    # The dispatcher's choice is the cost model's, the same in every
    # state: priced from the entry's stored histogram, never its rows.
    assert len(served) == 1
    # A cached order lends structure unless there is none to lend: one
    # segment, or all-distinct values under another leading column.
    barren = variant == "one-segment" or (
        variant == "all-distinct" and in_cols[0] != out_cols[0])
    if case != 0 and len(source.rows) > 1 and not barren:
        assert "modify-from-cache" in served or "cache-hit" in served


def test_the_served_paths_hand_out_tuples(tmp_path):
    """``OrderResponse.table`` on every path: miss, hit from memo, hit
    from flat, hit from disk, modify-from-cache."""
    source = _source(_rows("normal", seed=5), None)
    other = _source(_rows("normal", seed=6), None)
    abcd, acbd = SortSpec.of("A", "B", "C", "D"), SortSpec.of("A", "C", "B", "D")
    seen = []
    for budget in (None, 1):
        configure_cache(budget=budget, spill_dir=str(tmp_path))
        with OrderService(ExecutionConfig(cache="on", service_threads=2)) as svc:
            for table, spec in (
                (source, abcd), (source, abcd), (source, acbd),
                (other, abcd), (source, abcd), (source, acbd),
            ):
                resp = svc.order_by(table, spec, timeout=60)
                _same(resp.table, _oracle(table.rows, spec))
                seen.append(resp.label.split("(")[0])
    assert {"full-sort", "cache-hit", "modify-from-cache"} <= set(seen)
    c = get_cache().counters()
    assert c["spills"] > 0 and c["rehydrates"] > 0


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "mixed"])
@pytest.mark.parametrize("case", sorted(TABLE1))
def test_kernel_perm_equals_the_perm_derived_by_value(case, variant):
    in_cols, out_cols = TABLE1[case]
    in_spec, out_spec = _spec(in_cols, variant), _spec(out_cols, variant)
    rows = _rows(variant, seed=20 + case)
    for source in (_source(rows, None),
                   _source(rows, None if variant == "nan" else in_spec)):
        done = enforce_order(
            source, out_spec, stats=ComparisonStats(),
            config=ExecutionConfig(engine="fast"), want_perm=True,
        )
        assert done.perm is not None
        assert [source.rows[i] for i in done.perm] == list(done.table.rows)
        # By identity (the output holds the source's own tuples) ...
        assert list(_perm_of(source.rows, done.table.rows)) == done.perm
        if variant != "nan":  # ... and by value, from rebuilt tuples.
            rebuilt = [tuple(list(r)) for r in done.table.rows]
            assert list(_perm_of(source.rows, rebuilt)) == done.perm
        # Nobody pays for a permutation they did not ask for.
        plain = enforce_order(
            source, out_spec, stats=ComparisonStats(),
            config=ExecutionConfig(engine="fast"),
        )
        assert plain.perm is None and plain.table.rows == done.table.rows


def test_perm_of_rejects_foreign_rows():
    source = [(1, 2), (3, 4), (3, 4)]
    assert _perm_of(source, [(3, 4), (1, 2), (3, 4)]) == [1, 0, 2]
    with pytest.raises(LookupError):
        _perm_of(source, [(3, 4), (3, 4), (3, 4)])
    with pytest.raises(LookupError):
        _perm_of(source, [(9, 9), (1, 2), (3, 4)])
    cache = OrderCache()
    fp = fingerprint_rows(source, ("A", "B"))
    rows = [(1, 2), (3, 4), (9, 9)]
    assert not cache.install(
        fp, SortSpec.of("A"), rows, derive_ovcs(rows, (0,))
    )
    assert cache.counters()["rejected"] == 1 and len(cache) == 0


@pytest.mark.parametrize("edit", ["replace", "reverse", "append"])
def test_a_source_edited_in_place_is_a_miss(edit, tmp_path):
    """A table cannot be edited in place; the same edit made through
    ``dataclasses.replace`` is a new row sequence, and a miss."""
    spec = SortSpec.of("B", "A")
    cfg = ExecutionConfig(cache="on")
    for budget in (None, 1):  # the entry read as a memo, and as arrays
        cache = configure_cache(budget=budget, spill_dir=str(tmp_path))
        source = _source(_rows("normal", seed=3), None)
        _same(_request(source, spec, cfg)[0], _oracle(source.rows, spec))
        _same(_request(source, spec, cfg)[0], _oracle(source.rows, spec))
        assert cache.counters()["hits"] == 1
        rows = list(source.rows)
        if edit == "replace":
            with pytest.raises(TypeError):
                source.rows[7] = (99, 99, 99, 99)
            rows[7] = (99, 99, 99, 99)
        elif edit == "reverse":
            with pytest.raises(AttributeError):
                source.rows.reverse()
            rows.reverse()
        else:
            with pytest.raises(AttributeError):
                source.rows.append((0, 0, 0, 0))
            rows.append((0, 0, 0, 0))
        with pytest.raises(FrozenInstanceError):
            source.rows = rows
        source = replace(source, rows=rows)
        out, op = _request(source, spec, cfg)
        assert op.executed != "cache"  # a stale perm was not applied
        _same(out, _oracle(source.rows, spec))
        assert cache.counters()["hits"] == 1
        assert cache.counters()["installs"] == 2


def test_readers_never_see_a_torn_entry_under_pressure(tmp_path):
    """Two threads read one entry while a third keeps the budget tight:
    the entry is demoted, spilled and rehydrated under their feet, and
    every read is whole."""
    rows = _rows("normal", seed=1)
    spec = SortSpec.of("C", "A")
    want_rows, want_ovcs = _oracle(rows, spec)
    fp = fingerprint_rows(rows, SCHEMA.columns)
    cache = OrderCache(budget=1, spill_dir=str(tmp_path))
    cache.install(fp, spec, list(want_rows), list(want_ovcs))
    others = []
    for seed in range(4):
        o_rows = _rows("normal", seed=50 + seed)
        others.append((fingerprint_rows(o_rows, SCHEMA.columns),
                       *_oracle(o_rows, spec)))
    stop, errors, reads = threading.Event(), [], [0, 0]

    def reader(slot):
        try:
            while not stop.is_set():
                hit = cache.lookup(fp, spec)
                assert hit is not None
                assert (hit.table.rows, hit.table.ovcs) == \
                    (want_rows, want_ovcs)
                assert tuple(rows[i] for i in hit.perm) == want_rows
                reads[slot] += 1
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
            stop.set()

    def presser():
        try:
            while not stop.is_set():
                for o_fp, o_rows, o_ovcs in others:
                    cache.install(o_fp, spec, o_rows, o_ovcs)
                    cache.accountant.budget = random.choice((1, 4096, None))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=reader, args=(i,)) for i in (0, 1)]
    threads.append(threading.Thread(target=presser))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        time.sleep(1.0)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert min(reads) > 0
    c = cache.counters()
    assert c["spills"] > 0 and c["rehydrates"] > 0
    assert c["hits"] == sum(reads)
    cache.accountant.budget = 1
    cache.close()
    assert cache.accountant.used == 0 and cache.bytes_resident == 0
    assert not [f for _r, _d, fs in os.walk(tmp_path) for f in fs]


def test_unpackable_code_values_stay_a_list_and_are_counted(tmp_path):
    rows = _rows("big-values", seed=2)
    spec = SortSpec.of("B", "D")
    want = _oracle(rows, spec)
    assert want[1][0][1] >= 1 << 70
    with pytest.raises(OverflowError):
        pack_codes(want[1])
    fp = fingerprint_rows(rows, SCHEMA.columns)
    METRICS.enable()
    try:
        with OrderCache(budget=1, spill_dir=str(tmp_path)) as cache:
            assert cache.install(fp, spec, *want)
            assert METRICS.counter("cache.unpacked_installs").value == 1
            # Flat, then through a spill file: the values come back whole.
            for _ in range(2):
                hit = cache.lookup(fp, spec)
                assert (hit.table.rows, hit.table.ovcs) == want
                cache.install(
                    fingerprint_rows(rows[:9], SCHEMA.columns), spec,
                    *_oracle(rows[:9], spec),
                )
            assert cache.counters()["rehydrates"] == 1
    finally:
        METRICS.disable()
        METRICS.reset()


@pytest.mark.parametrize("pool, book", [
    ((1, 2, 3), True),          # plain ints: one book
    ((1, 1.0, True), False),    # equal values of three types: no book
])
def test_a_code_book_never_merges_equal_values_of_other_types(
    pool, book, tmp_path
):
    # Rows (a, 0), (a, x) code the second row of each pair (1, x): with
    # x from 1, 1.0 and True those codes compare and hash alike.
    rows = [(a, b) for a in range(8) for b in (0, pool[a % 3])]
    spec = SortSpec.of("A", "B")
    want = rows, derive_ovcs(rows, (0, 1))
    ids, offsets, _values = _code_book(want[1])
    assert (ids is not None) is book
    if book:
        assert len(offsets) == len(set(want[1])) < len(rows)
    fp = fingerprint_rows(rows, ("A", "B"))
    small = [(9, 9)]
    with OrderCache(budget=1, spill_dir=str(tmp_path)) as cache:
        assert cache.install(fp, spec, *want)
        # Memo dropped, flat; then through a spill file and back.
        for state in ("flat", "spilled"):
            assert cache.candidates(fp)[0].state == state
            hit = cache.lookup(fp, spec)
            assert all(map(operator.is_, hit.table.rows, rows))
            assert list(hit.table.ovcs) == want[1]
            assert _types(hit.table.ovcs) == _types(want[1])
            cache.install(fingerprint_rows(small, ("A", "B")), spec, small,
                          derive_ovcs(small, (0, 1)))
        assert cache.counters()["rehydrates"] == 1


@pytest.mark.parametrize("pool", [(1, 2, 3), (1, 1.0, True), (1, 1 << 70, 2)],
                         ids=["book", "three-types", "beyond-a-word"])
def test_flat_and_rehydrated_reads_gather_the_sources_own_rows(
    pool, tmp_path
):
    """With no memo kept, a read gathers the rows through ``perm`` and
    the codes through the book: each row is the very object the
    fingerprint hashed (equal rows told apart by position), each code
    the type a fresh derivation gives."""
    rng = random.Random(7)
    # Equal rows as distinct objects, in no particular order.
    source = [tuple([rng.randrange(4), rng.choice(pool), rng.randrange(3)])
              for _ in range(200)]
    spec = SortSpec.of("B", "A")
    want = sorted(source, key=operator.itemgetter(1, 0))
    codes = derive_ovcs(want, (1, 0))
    fp = fingerprint_rows(source, ("A", "B", "C"))
    small = [(9, 9, 9)]
    with OrderCache(budget=1, spill_dir=str(tmp_path)) as cache:
        assert cache.install(fp, spec, want, codes)
        for state in ("flat", "spilled"):
            assert cache.candidates(fp)[0].state == state
            hit = cache.lookup(fp, spec)
            assert hit.state == state and hit.table.rows is not want
            assert all(map(operator.is_, hit.table.rows, want))
            out = hit.table
            assert all(r is fp.rows[i] for r, i in zip(out.rows, hit.perm))
            assert list(out.ovcs) == codes
            assert _types(out.ovcs) == _types(codes)
            cache.install(fingerprint_rows(small, ("A", "B", "C")), spec,
                          small, derive_ovcs(small, (1, 0)))
        assert cache.counters()["rehydrates"] == 1


# --------------------------------------------------- flat code helpers

def _old_offset_counts(ovcs, arity):
    """The per-row loop `_offset_counts` was, kept as the reference."""
    counts = [0] * (arity + 1)
    for off, _v in ovcs:
        counts[min(off, arity)] += 1
    return tuple(counts)


@pytest.mark.parametrize("ovcs, arity", [
    ([], 2),
    ([(0, 5)], 2),
    ([(0, 1)] + [(2, 0)] * 9, 2),                  # all duplicates
    ([(0, 1), (1, 4), (3, 9), (5, 2), (2, 0)], 2),  # offsets beyond arity
    ([(0, 1), (1, 7)], 0),
    ([(0, 1), (300, 7), (2, 2)], 3),               # offsets beyond a byte
], ids=["empty", "one-row", "all-duplicate", "beyond-arity", "arity-0",
        "wide-offsets"])
def test_offset_counts_agree_with_the_row_loop(ovcs, arity):
    want = _old_offset_counts(ovcs, arity)
    ids, offsets, _values = _code_book(ovcs)
    assert ids is not None
    assert _offset_counts(ids, offsets, arity) == want
    # Without a book (ids None) the offsets are one per row.
    assert _offset_counts(None, pack_codes(ovcs)[0], arity) == want


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(-(1 << 63), (1 << 63) - 1))),
    st.integers(0, 5),
)
def test_pack_codes_round_trips_and_counts(ovcs, arity):
    offsets, values = pack_codes(ovcs)
    assert unpack_codes(offsets, values) == tuple(ovcs)
    assert offsets.itemsize == 1
    if ovcs:
        low, high = min(v for _, v in ovcs), max(v for _, v in ovcs)
        assert values.itemsize == next(
            size for size in (1, 2, 4, 8)
            if -(1 << (8 * size - 1)) <= low and high < 1 << (8 * size - 1)
        )
    want = _old_offset_counts(ovcs, arity)
    assert _offset_counts(None, offsets, arity) == want
    book = _code_book(ovcs)
    assert _codes(*book) == tuple(ovcs)
    assert len(book[1]) == len(set(ovcs))
    assert _offset_counts(book[0], book[1], arity) == want


@pytest.mark.parametrize("bad", [
    [(0, "x")], [(0, None)], [(0, 1.0)], [(0, True)], [(0, 1 << 64)],
])
def test_pack_codes_refuses_what_is_not_a_machine_word_int(bad):
    with pytest.raises((TypeError, OverflowError)):
        pack_codes(bad)
