"""Regression: one classification pass per call, even across fallbacks.

``engine="auto"`` first tries the packed-code fast path; when the codec
refuses the input (mixed types, ``None``) a ``TypeError`` sends the job
to the reference executors.  The segment boundaries were already
computed for the fast attempt — the fallback (and the fast path
itself) must reuse them instead of re-classifying the input.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.core.classify as classify
import repro.core.modify as modify_mod
import repro.fastpath.execute as fast_mod
from repro.core.modify import modify_sort_order
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs

SCHEMA = Schema.of("A", "B", "C")
IN_SPEC = SortSpec.of("A", "B", "C")
OUT_SPEC = SortSpec.of("A", "C", "B")


def _mixed_type_table() -> Table:
    """Per-segment uniform, globally mixed: legal for the reference
    executors, refused by the packed codec (the auto-fallback input)."""
    rows = [(0, f"b{b}", f"c{(b * 3) % 5}") for b in range(40)]
    rows += [(1, b % 7, (b * 5) % 11) for b in range(40)]
    rows = sorted(rows[:40], key=lambda r: (r[1], r[2])) + sorted(
        rows[40:], key=lambda r: (r[1], r[2])
    )
    table = Table(SCHEMA, rows, IN_SPEC)
    table = replace(table, ovcs=derive_ovcs(rows, (0, 1, 2)))
    return table


def _packable_table() -> Table:
    rows = sorted(
        (a % 4, b % 6, (a * b) % 5) for a in range(30) for b in range(10)
    )
    table = Table(SCHEMA, rows, IN_SPEC)
    table = replace(table, ovcs=derive_ovcs(rows, (0, 1, 2)))
    return table


@pytest.fixture
def count_splits(monkeypatch):
    """Count ``split_segments`` calls through every module that
    imported it (from-imports bind per-module references)."""
    calls = []
    real = classify.split_segments

    def counting(*args):
        calls.append(1)
        return real(*args)

    for mod in (classify, modify_mod, fast_mod):
        if getattr(mod, "split_segments", None) is not None:
            monkeypatch.setattr(mod, "split_segments", counting)
    return calls


def test_auto_fallback_classifies_exactly_once(count_splits):
    table = _mixed_type_table()
    result = modify_sort_order(table, OUT_SPEC)  # auto -> fast -> TypeError -> reference
    assert result.is_sorted()
    assert len(count_splits) == 1


def test_fast_path_reuses_dispatcher_boundaries(count_splits):
    table = _packable_table()
    modify_sort_order(table, OUT_SPEC, config=ExecutionConfig(engine="fast"))
    assert len(count_splits) == 1


def test_reference_path_classifies_exactly_once(count_splits):
    table = _packable_table()
    modify_sort_order(
        table, OUT_SPEC, config=ExecutionConfig(engine="reference")
    )
    assert len(count_splits) == 1
