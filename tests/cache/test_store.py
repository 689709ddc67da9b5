"""OrderCache store mechanics: LRU, TTL, budget, spill/rehydrate."""

from __future__ import annotations

import os

import pytest

from repro.cache import fingerprint_rows
from repro.cache.store import ENTRY_BYTES, OrderCache
from repro.model import SortSpec
from repro.ovc.derive import derive_ovcs
from repro.ovc.stats import ComparisonStats


SCHEMA = ("A", "B")
SPEC_AB = SortSpec.of("A", "B")
SPEC_BA = SortSpec.of("B", "A")


def _entry(n=64, salt=0):
    """An (fp, rows, ovcs) triple: rows sorted on A,B with real codes."""
    rows = sorted((i % 5 + salt, i % 11) for i in range(n))
    ovcs = derive_ovcs(rows, (0, 1))
    fp = fingerprint_rows(rows, SCHEMA)
    return fp, rows, ovcs


def _spill_files(tmp_path):
    return [
        os.path.join(root, f)
        for root, _dirs, files in os.walk(tmp_path)
        for f in files
    ]


def test_install_lookup_roundtrip_identity():
    cache = OrderCache()
    fp, rows, ovcs = _entry()
    delta = ComparisonStats(column_comparisons=123)
    assert cache.install(fp, SPEC_AB, rows, ovcs, delta)
    hit = cache.lookup(fp, SPEC_AB)
    assert hit is not None
    assert hit.rows == rows and hit.ovcs == ovcs
    assert hit.stats_delta.column_comparisons == 123
    # Wrong order, wrong data: misses.
    assert cache.lookup(fp, SPEC_BA) is None
    other_fp, _, _ = _entry(salt=100)
    assert cache.lookup(other_fp, SPEC_AB) is None
    c = cache.counters()
    assert c["hits"] == 1 and c["misses"] == 2 and c["installs"] == 1
    assert c["hits"] + c["misses"] == 3  # every lookup accounted
    cache.close()


def test_install_rejects_missing_codes():
    cache = OrderCache()
    fp, rows, _ = _entry()
    assert not cache.install(fp, SPEC_AB, rows, None, ComparisonStats())
    assert len(cache) == 0
    cache.close()


def test_ttl_expiry_with_injected_clock():
    now = [0.0]
    cache = OrderCache(ttl=10.0, clock=lambda: now[0])
    fp, rows, ovcs = _entry()
    cache.install(fp, SPEC_AB, rows, ovcs, ComparisonStats())
    now[0] = 5.0
    assert cache.lookup(fp, SPEC_AB) is not None
    now[0] = 10.5
    assert cache.lookup(fp, SPEC_AB) is None
    assert cache.counters()["expirations"] == 1
    assert len(cache) == 0
    cache.close()


def test_max_entries_evicts_lru():
    cache = OrderCache(max_entries=2)
    entries = [_entry(salt=s) for s in range(3)]
    for fp, rows, ovcs in entries[:2]:
        cache.install(fp, SPEC_AB, rows, ovcs, ComparisonStats())
    # Touch the first so the second becomes LRU.
    assert cache.lookup(entries[0][0], SPEC_AB) is not None
    fp, rows, ovcs = entries[2]
    cache.install(fp, SPEC_AB, rows, ovcs, ComparisonStats())
    assert len(cache) == 2
    assert cache.lookup(entries[0][0], SPEC_AB) is not None
    assert cache.lookup(entries[1][0], SPEC_AB) is None  # evicted
    assert cache.counters()["evictions"] == 1
    cache.close()


def test_budget_spills_and_rehydrates_bit_identical(tmp_path):
    fp1, rows1, ovcs1 = _entry(n=256, salt=0)
    fp2, rows2, ovcs2 = _entry(n=256, salt=50)
    cache = OrderCache(budget=1, spill_dir=str(tmp_path))
    cache.install(fp1, SPEC_AB, rows1, ovcs1,
                  ComparisonStats(column_comparisons=7))
    cache.install(fp2, SPEC_AB, rows2, ovcs2, ComparisonStats())
    # Budget of one byte: everything must have been pushed to disk.
    c = cache.counters()
    assert c["spills"] >= 1
    assert _spill_files(tmp_path)
    hit = cache.lookup(fp1, SPEC_AB)
    assert hit is not None
    assert hit.rows == rows1 and hit.ovcs == ovcs1
    assert hit.stats_delta.column_comparisons == 7
    assert cache.counters()["rehydrates"] >= 1
    assert len(cache) == 2  # spilled entries still count
    cache.close()
    assert not _spill_files(tmp_path)  # no leaked spill files


def test_budget_without_spill_evicts(tmp_path):
    fp1, rows1, ovcs1 = _entry(n=256)
    fp2, rows2, ovcs2 = _entry(n=256, salt=50)
    cache = OrderCache(budget=1, spill=False)
    cache.install(fp1, SPEC_AB, rows1, ovcs1, ComparisonStats())
    assert len(cache) == 0  # rejected: alone over the whole budget
    assert cache.counters()["rejected"] == 1
    # An entry's flat size: what a one-byte budget is left holding of
    # the entry being installed (its memo goes, its arrays stay).
    with OrderCache(budget=1, spill_dir=str(tmp_path)) as probe:
        probe.install(fp1, SPEC_AB, rows1, ovcs1, ComparisonStats())
        flat = probe.bytes_resident
    assert 0 < flat - ENTRY_BYTES <= 13 * 256
    # Room for one flat form but not two: the LRU one is evicted outright.
    big = OrderCache(budget=int(1.5 * flat), spill=False)
    big.install(fp1, SPEC_AB, rows1, ovcs1, ComparisonStats())
    big.install(fp2, SPEC_AB, rows2, ovcs2, ComparisonStats())
    assert big.counters()["evictions"] >= 1
    assert big.counters()["spills"] == 0
    assert big.bytes_resident <= int(1.5 * flat)
    assert big.lookup(fp1, SPEC_AB) is None
    assert big.lookup(fp2, SPEC_AB) is not None
    big.close()
    cache.close()


def test_candidates_and_fetch(tmp_path):
    cache = OrderCache(budget=1, spill_dir=str(tmp_path))
    fp, rows, ovcs = _entry(n=128)
    fp2, rows2, ovcs2 = _entry(n=128, salt=50)
    cache.install(fp, SPEC_AB, rows, ovcs, ComparisonStats())
    # Installing a second source pushes the first out to disk (the
    # entry being installed is protected from its own pressure pass).
    cache.install(fp2, SPEC_AB, rows2, ovcs2, ComparisonStats())
    cands = cache.candidates(fp)
    assert [c.spec for c in cands] == [SPEC_AB]
    assert cands[0].rows is None  # spilled: metadata only, no rehydrate
    counts = [0, 0, 0]
    for offset, _value in ovcs:
        counts[min(offset, 2)] += 1
    assert cands[0].offset_counts == tuple(counts)
    before = cache.counters()
    chosen = cache.fetch(fp, SPEC_AB)
    assert chosen.rows == rows and chosen.ovcs == ovcs
    after = cache.counters()
    # fetch is not a hit/miss event.
    assert (after["hits"], after["misses"]) == \
        (before["hits"], before["misses"])
    assert cache.fetch(fp, SPEC_BA) is None
    cache.close()


def test_sequence_gating_for_tied_entries():
    # Full-key duplicates under the sort spec: output depends on the
    # arrival order, so a different arrangement must not reuse it.
    rows = sorted((i % 3, 0) for i in range(12))
    ovcs = derive_ovcs(rows, (0, 1))
    fp = fingerprint_rows(rows, SCHEMA)
    cache = OrderCache()
    cache.install(fp, SPEC_AB, rows, ovcs, ComparisonStats())
    assert cache.lookup(fp, SPEC_AB) is not None
    other = fingerprint_rows(list(reversed(rows)), SCHEMA)
    assert other.n_rows == fp.n_rows and other.source_key != fp.source_key
    assert cache.lookup(other, SPEC_AB) is None  # sequence mismatch
    # Nor is it a modify candidate: its permutation indexes the other
    # arrangement.
    assert cache.candidates(other) == []
    assert len(cache.candidates(fp)) == 1
    cache.close()


def test_entry_belongs_to_one_row_sequence():
    # Even with unique full keys (the sorted output is the same list
    # whatever the arrangement) an entry is a permutation of the
    # sequence it was installed for: applied to another arrangement it
    # would name other rows.  That arrangement misses and installs its own.
    rows = sorted((i, i % 4) for i in range(12))
    ovcs = derive_ovcs(rows, (0, 1))
    arrangement = list(reversed(rows))
    fp = fingerprint_rows(arrangement, SCHEMA)
    cache = OrderCache()
    cache.install(fp, SPEC_AB, rows, ovcs, ComparisonStats())
    hit = cache.lookup(fp, SPEC_AB)
    assert hit.rows == rows and list(hit.perm) == list(range(11, -1, -1))
    other = fingerprint_rows(rows, SCHEMA)
    assert cache.lookup(other, SPEC_AB) is None
    cache.install(other, SPEC_AB, list(rows), list(ovcs), ComparisonStats())
    assert len(cache) == 2
    assert list(cache.lookup(other, SPEC_AB).perm) == list(range(12))
    assert cache.lookup(fp, SPEC_AB).rows == rows
    cache.close()


def test_invalidate_by_source_and_wholesale():
    cache = OrderCache()
    fp1, rows1, ovcs1 = _entry(salt=0)
    fp2, rows2, ovcs2 = _entry(salt=9)
    cache.install(fp1, SPEC_AB, rows1, ovcs1, ComparisonStats())
    cache.install(fp1, SPEC_BA, list(rows1), list(ovcs1), ComparisonStats())
    cache.install(fp2, SPEC_AB, rows2, ovcs2, ComparisonStats())
    assert cache.invalidate(fp1.source_key) == 2
    assert len(cache) == 1
    assert cache.invalidate() == 1
    assert len(cache) == 0
    assert cache.bytes_resident == 0
    cache.close()


def test_reinstall_replaces_and_accounts_once():
    cache = OrderCache()
    fp, rows, ovcs = _entry()
    cache.install(fp, SPEC_AB, rows, ovcs, ComparisonStats())
    used = cache.bytes_resident
    cache.install(fp, SPEC_AB, list(rows), list(ovcs), ComparisonStats())
    assert cache.bytes_resident == used
    assert len(cache) == 1
    # A replaced entry was neither evicted nor expired.
    c = cache.counters()
    assert (c["installs"], c["evictions"], c["expirations"]) == (2, 0, 0)
    cache.close()


def test_validation():
    with pytest.raises(ValueError):
        OrderCache(ttl=0)
    with pytest.raises(ValueError):
        OrderCache(max_entries=0)
