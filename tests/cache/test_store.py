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
    # A fifth positional argument (a counter set) is accepted and
    # ignored: an entry is rows and codes, it keeps no counts.
    assert cache.install(
        fp, SPEC_AB, rows, ovcs, ComparisonStats(column_comparisons=123)
    )
    hit = cache.lookup(fp, SPEC_AB)
    assert hit is not None
    assert hit.rows == rows and hit.ovcs == ovcs
    assert not hasattr(hit, "stats_delta")
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
    assert not cache.install(fp, SPEC_AB, rows, None)
    assert len(cache) == 0
    cache.close()


def test_budget_spills_and_rehydrates_bit_identical(tmp_path):
    fp1, rows1, ovcs1 = _entry(n=256, salt=0)
    fp2, rows2, ovcs2 = _entry(n=256, salt=50)
    cache = OrderCache(budget=1, spill_dir=str(tmp_path))
    cache.install(fp1, SPEC_AB, rows1, ovcs1)
    # What a one-byte budget is left holding of the entry being
    # installed: its flat form (the memo goes, the arrays stay).
    flat = cache.bytes_resident - ENTRY_BYTES
    assert 0 < flat <= 13 * 256
    cache.install(fp2, SPEC_AB, rows2, ovcs2)
    # Budget of one byte: everything else must have been pushed to disk.
    c = cache.counters()
    assert c["spills"] >= 1
    assert _spill_files(tmp_path)
    hit = cache.lookup(fp1, SPEC_AB)
    assert hit is not None
    assert hit.rows == rows1 and hit.ovcs == ovcs1
    assert cache.counters()["rehydrates"] >= 1
    assert len(cache) == 2  # spilled entries still count
    cache.close()
    assert not _spill_files(tmp_path)  # no leaked spill files


def test_candidates_and_fetch(tmp_path):
    cache = OrderCache(budget=1, spill_dir=str(tmp_path))
    fp, rows, ovcs = _entry(n=128)
    fp2, rows2, ovcs2 = _entry(n=128, salt=50)
    cache.install(fp, SPEC_AB, rows, ovcs)
    # Installing a second source pushes the first out to disk (the
    # entry being installed is protected from its own pressure pass).
    cache.install(fp2, SPEC_AB, rows2, ovcs2)
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
    cache.install(fp, SPEC_AB, rows, ovcs)
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
    cache.install(fp, SPEC_AB, rows, ovcs)
    hit = cache.lookup(fp, SPEC_AB)
    assert hit.rows == rows and list(hit.perm) == list(range(11, -1, -1))
    other = fingerprint_rows(rows, SCHEMA)
    assert cache.lookup(other, SPEC_AB) is None
    cache.install(other, SPEC_AB, list(rows), list(ovcs))
    assert len(cache) == 2
    assert list(cache.lookup(other, SPEC_AB).perm) == list(range(12))
    assert cache.lookup(fp, SPEC_AB).rows == rows
    cache.close()


def test_invalidate_by_source_and_wholesale():
    cache = OrderCache()
    fp1, rows1, ovcs1 = _entry(salt=0)
    fp2, rows2, ovcs2 = _entry(salt=9)
    cache.install(fp1, SPEC_AB, rows1, ovcs1)
    cache.install(fp1, SPEC_BA, list(rows1), list(ovcs1))
    cache.install(fp2, SPEC_AB, rows2, ovcs2)
    assert cache.invalidate(fp1.source_key) == 2
    assert len(cache) == 1
    assert cache.invalidate() == 1
    assert len(cache) == 0
    assert cache.bytes_resident == 0
    cache.close()


def test_reinstall_replaces_and_accounts_once():
    cache = OrderCache()
    fp, rows, ovcs = _entry()
    cache.install(fp, SPEC_AB, rows, ovcs)
    used = cache.bytes_resident
    cache.install(fp, SPEC_AB, list(rows), list(ovcs))
    assert cache.bytes_resident == used
    assert len(cache) == 1
    # A replaced entry was not evicted.
    c = cache.counters()
    assert (c["installs"], c["evictions"]) == (2, 0)
    cache.close()


def test_validation():
    with pytest.raises(ValueError):
        OrderCache(budget=0)
    # An entry is keyed by the exact rows it permutes, so it never goes
    # stale: the cache has no lifetime (and no clock) to configure.
    with pytest.raises(TypeError, match="unexpected keyword"):
        OrderCache(ttl=1)
    with pytest.raises(TypeError, match="unexpected keyword"):
        OrderCache(clock=lambda: 0.0)
