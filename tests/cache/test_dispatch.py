"""Dispatcher correctness: every served result's rows and codes are
bit-identical to a cold execution; an exact hit counts nothing."""

from __future__ import annotations

import random

from repro.cache import fingerprint_table, install_result, serve
from repro.cache.store import OrderCache
from repro.cache.dispatch import _retiebreak
from repro.core.modify import modify_sort_order
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs
from repro.ovc.stats import ComparisonStats
from repro.sorting.internal import tournament_sort


SCHEMA = Schema.of("A", "B", "C")
CFG = ExecutionConfig()


def _source(n=300, domains=(5, 4, 3), seed=0) -> Table:
    rng = random.Random(seed)
    rows = [tuple(rng.randrange(d) for d in domains) for _ in range(n)]
    return Table(SCHEMA, rows)


def _cold_sort(source: Table, spec: SortSpec):
    """What an uncached Sort would produce for an unordered child."""
    rows, ovcs = tournament_sort(
        list(source.rows), spec.positions(source.schema), ComparisonStats(),
        spec.directions, True,
    )
    return tuple(rows), tuple(ovcs)


def test_exact_hit_serves_rows_and_codes_and_counts_nothing():
    cache = OrderCache()
    source = _source()
    spec = SortSpec.of("A", "B", "C")
    rows, ovcs = _cold_sort(source, spec)
    fp = fingerprint_table(source)
    assert install_result(cache, fp, spec, Table(SCHEMA, rows, spec, ovcs))

    hit_stats = ComparisonStats()
    outcome = serve(
        cache, source, spec, stats=hit_stats,
        config=CFG.with_(engine="reference"),
    )
    assert outcome.table is not None
    assert outcome.label == "cache-hit(A,B,C)"
    assert outcome.table.rows == rows
    assert outcome.table.ovcs == ovcs
    assert hit_stats == ComparisonStats()  # a hit compares nothing
    cache.close()


def test_miss_without_candidates():
    cache = OrderCache()
    source = _source()
    outcome = serve(
        cache, source, SortSpec.of("A"), stats=ComparisonStats(), config=CFG
    )
    assert outcome.table is None and outcome.label is None
    assert outcome.fingerprint == fingerprint_table(source)
    assert cache.counters()["misses"] == 1
    cache.close()


def test_modify_from_cached_sibling_bit_identical():
    cache = OrderCache()
    source = _source()
    cached_spec = SortSpec.of("A", "B", "C")
    rows, ovcs = _cold_sort(source, cached_spec)
    fp = fingerprint_table(source)
    install_result(cache, fp, cached_spec, Table(SCHEMA, rows, cached_spec, ovcs))

    want = SortSpec.of("A", "C", "B")
    cold_rows, cold_ovcs = _cold_sort(source, want)
    outcome = serve(
        cache, source, want, stats=ComparisonStats(), config=CFG
    )
    assert outcome.table is not None
    assert outcome.label == "modify-from-cache(A,B,C)"
    assert outcome.table.rows == cold_rows
    assert outcome.table.ovcs == cold_ovcs
    # The produced order was installed for future exact hits.
    assert cache.lookup(fp, want) is not None
    cache.close()


def test_modify_reties_against_live_sequence():
    # The requested key (A) is shorter than the rows: rows equal on A
    # differ in B and C.  The cached sibling holds them in *its* order
    # (B within A-ties); a stable sort of the live source leaves them in
    # arrival order, so a blind modify would leak the sibling's.
    source = _source(n=240, domains=(2, 3, 2), seed=1)
    cache = OrderCache()
    cached_spec = SortSpec.of("B", "A")
    rows, ovcs = _cold_sort(source, cached_spec)
    fp = fingerprint_table(source)
    install_result(
        cache, fp, cached_spec, Table(SCHEMA, rows, cached_spec, ovcs)
    )

    want = SortSpec.of("A")
    cold_rows, cold_ovcs = _cold_sort(source, want)
    blind = modify_sort_order(Table(SCHEMA, rows, cached_spec, ovcs), want)
    assert blind.rows != cold_rows  # the premise: ties come out B-ordered
    outcome = serve(
        cache, source, want, stats=ComparisonStats(), config=CFG
    )
    assert outcome.table is not None
    assert outcome.label == "modify-from-cache(B,A)"
    assert outcome.table.rows == cold_rows  # live arrival order in ties
    assert outcome.table.ovcs == cold_ovcs
    # What was installed is the re-tie-broken order, as a permutation.
    hit = cache.lookup(fp, want)
    assert hit.table.rows == cold_rows and hit.table.ovcs == cold_ovcs
    assert tuple(source.rows[i] for i in hit.perm) == cold_rows
    cache.close()


def test_another_arrangement_of_the_same_rows_is_a_miss():
    # An entry is a permutation of one row sequence; the same multiset
    # in another arrangement neither hits nor offers a candidate.
    source = _source(n=240, domains=(2, 3, 2), seed=1)
    shuffled = list(source.rows)
    random.Random(99).shuffle(shuffled)
    other = Table(SCHEMA, shuffled)
    cache = OrderCache()
    spec = SortSpec.of("A", "B", "C")
    rows, ovcs = _cold_sort(other, spec)
    install_result(
        cache, fingerprint_table(other), spec,
        Table(SCHEMA, rows, spec, ovcs),
    )
    for want in (spec, SortSpec.of("A", "C", "B")):
        outcome = serve(
            cache, source, want, stats=ComparisonStats(), config=CFG
        )
        assert outcome.table is None
    assert cache.candidates(fingerprint_table(source)) == []
    cache.close()


def test_unrelated_candidate_is_not_used():
    # C -> A shares no prefix and no merge structure: the estimate is a
    # full sort, which cannot clear the win margin over the baseline.
    cache = OrderCache()
    source = _source()
    cached_spec = SortSpec.of("C")
    rows, ovcs = _cold_sort(source, cached_spec)
    fp = fingerprint_table(source)
    install_result(
        cache, fp, cached_spec, Table(SCHEMA, rows, cached_spec, ovcs)
    )
    outcome = serve(
        cache, source, SortSpec.of("A"), stats=ComparisonStats(), config=CFG
    )
    assert outcome.table is None
    cache.close()


def test_ordered_source_baseline_prefers_own_order():
    # The live input already carries a related order at least as good
    # as any cached sibling: serve must miss so the caller's own
    # modify path runs.
    source = _source()
    spec_abc = SortSpec.of("A", "B", "C")
    rows, ovcs = _cold_sort(source, spec_abc)
    ordered = Table(SCHEMA, rows, spec_abc, ovcs)

    cache = OrderCache()
    install_result(
        cache, fingerprint_table(ordered), spec_abc,
        Table(SCHEMA, rows, spec_abc, ovcs),
    )
    outcome = serve(
        cache, ordered, SortSpec.of("A", "C", "B"),
        stats=ComparisonStats(), config=CFG,
    )
    # The only candidate is the source's own order: no win possible.
    assert outcome.table is None
    cache.close()


def test_modify_result_matches_modify_sort_order_directly():
    # The dispatcher must not change what the paper's machinery
    # produces when the cached entry *is* the live table.
    source = _source(seed=3)
    spec_abc = SortSpec.of("A", "B", "C")
    rows, ovcs = _cold_sort(source, spec_abc)
    ordered = Table(SCHEMA, rows, spec_abc, ovcs)
    want = SortSpec.of("B", "A", "C")

    expected = modify_sort_order(ordered, want, method="auto", use_ovc=True)

    cache = OrderCache()
    install_result(
        cache, fingerprint_table(source), spec_abc, ordered
    )
    outcome = serve(
        cache, source, want, stats=ComparisonStats(), config=CFG
    )
    if outcome.table is not None:  # served: must equal the direct path
        assert outcome.table.rows == expected.rows
        assert outcome.table.ovcs == expected.ovcs
    cache.close()


def test_retiebreak_reorders_ties_only():
    # rows sorted on A only; B,C vary freely inside tie groups.
    arity = 1
    live = [(0, "x", 1), (1, "q", 2), (0, "y", 3), (1, "p", 4)]
    cached_order = [(0, "y", 3), (0, "x", 1), (1, "p", 4), (1, "q", 2)]
    rows = sorted(cached_order, key=lambda r: r[0])
    ovcs = derive_ovcs([(r[0],) for r in rows], (0,))
    perm = [live.index(r) for r in rows]
    assert _retiebreak(perm, [off for off, _ in ovcs], arity)
    fixed_rows = [live[i] for i in perm]
    # Inside each A-group the live arrival order wins.
    assert [r[0] for r in fixed_rows] == [0, 0, 1, 1]
    assert fixed_rows[:2] == [(0, "x", 1), (0, "y", 3)]
    assert fixed_rows[2:] == [(1, "q", 2), (1, "p", 4)]
    # No tie group, nothing to do — and the answer says so.
    untied = [2, 0, 1]
    assert not _retiebreak(untied, [0, 0, 0], arity)
    assert untied == [2, 0, 1]
