"""MemoryAccountant, the row size model, and spill files."""

from __future__ import annotations

import pytest

from repro.exec.memory import MemoryAccountant, rows_nbytes
from repro.exec.spill import SpillManager


def test_charge_release_peak_and_categories():
    acct = MemoryAccountant(1000)
    acct.charge("a", 600)
    acct.charge("b", 300)
    assert acct.used == 900
    assert acct.peak == 900
    assert not acct.over_budget()
    acct.charge("a", 200)
    assert acct.over_budget()
    assert acct.headroom() == 0
    acct.release("a", 800)
    assert acct.used == 300
    assert acct.peak == 1100  # peak is monotone
    assert acct.by_category == {"a": 0, "b": 300}
    assert acct.headroom() == 700


def test_unlimited_budget_tracks_but_never_fires():
    acct = MemoryAccountant(None)
    acct.charge("x", 10**9)
    assert not acct.over_budget()
    assert acct.headroom() is None


def test_zero_and_negative_charges_ignored():
    acct = MemoryAccountant(100)
    acct.charge("x", 0)
    acct.charge("x", -5)
    acct.release("x", 50)  # over-release clamps at zero
    assert acct.used == 0


def test_invalid_budget_rejected():
    with pytest.raises(ValueError):
        MemoryAccountant(0)


def test_rows_nbytes_counts_rows_and_codes():
    rows = [(1, 2), (3, 4)]
    bare = rows_nbytes(rows)
    coded = rows_nbytes(rows, [(0, 1), (1, 2)])
    assert bare > 0
    assert coded == bare + 2 * 16


def test_spill_manager_round_trip(tmp_path):
    with SpillManager(str(tmp_path)) as spill:
        rows = [(i, i * 2) for i in range(100)]
        ovcs = [(0, i) for i in range(100)]
        handle = spill.spill(rows, ovcs, "test")
        got_rows, got_ovcs = handle.read()
        assert got_rows == rows
        assert got_ovcs == ovcs
        handle.release()
    # Context exit removes the spill directory's contents.
    assert not list(tmp_path.glob("repro-spill-*"))
