"""Adversarial inputs for the run-head chain derivation.

When rows from *non-adjacent* runs tie through all merge keys, the
loser's output code must be derived by max-folding every saved head
code between the two runs.  These inputs maximize such events: every
run contains the same merge-key values, the infix spans several
columns, and runs differ at varying infix depths — so the fold is
exercised across arbitrary distances and offsets.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modify import modify_sort_order
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs, verify_ovcs
from repro.ovc.stats import ComparisonStats

SCHEMA = Schema.of("A", "X1", "X2", "X3", "M")
IN_SPEC = SortSpec.of("A", "X1", "X2", "X3", "M")
OUT_SPEC = SortSpec.of("A", "M", "X1", "X2", "X3")


def build(infixes: list[tuple], m_values: list[int], n_segments: int) -> Table:
    rows = []
    for a in range(n_segments):
        for infix in sorted(set(infixes)):
            for m in sorted(m_values):
                rows.append((a, *infix, m))
    table = Table(SCHEMA, rows, IN_SPEC)
    table = replace(table, ovcs=derive_ovcs(rows, tuple(range(5))))
    return table


infix_st = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    min_size=1,
    max_size=12,
)


@given(infix_st, st.lists(st.integers(0, 3), min_size=1, max_size=4),
       st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_identical_merge_keys_across_all_runs(infixes, m_values, n_segments):
    """Every run holds the same M values: every merge comparison that
    survives the codes becomes a cross-run tie resolved by derivation."""
    table = build(infixes, m_values, n_segments)
    stats = ComparisonStats()
    result = modify_sort_order(table, OUT_SPEC, method="combined", stats=stats)
    expected = sorted(
        table.rows, key=lambda r: (r[0], r[4], r[1], r[2], r[3])
    )
    assert list(result.rows) == expected
    assert verify_ovcs(result.rows, result.ovcs, (0, 4, 1, 2, 3))
    # The infix is never compared: with a single merge column, column
    # comparisons stay at zero no matter how many ties occur.
    assert stats.column_comparisons == 0


@given(infix_st, st.lists(st.integers(0, 3), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_derivation_with_tiny_fan_in(infixes, m_values):
    """Multi-wave merging over the same adversarial data (later waves
    may compare infix columns, but the result must stay exact)."""
    table = build(infixes, m_values, n_segments=2)
    result = modify_sort_order(
        table, OUT_SPEC, method="combined", config=ExecutionConfig(max_fan_in=2)
    )
    expected = sorted(
        table.rows, key=lambda r: (r[0], r[4], r[1], r[2], r[3])
    )
    assert list(result.rows) == expected
    assert verify_ovcs(result.rows, result.ovcs, (0, 4, 1, 2, 3))


def test_known_multi_hop_fold():
    """Hand-checked case: runs i and i+3 tie on M; the derived code
    must reflect the *shallowest* difference along the chain."""
    infixes = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    table = build(infixes, [5], 1)
    result = modify_sort_order(table, OUT_SPEC, method="combined")
    # Output: all rows share A=0, M=5; ordered by infix.
    assert [r[1:4] for r in result.rows] == sorted(infixes)
    # Codes: row k differs from row k-1 at the infix's first difference,
    # shifted behind M (positions 2..4 of the output key).
    assert list(result.ovcs) == [
        (0, 0),        # head of the table
        (4, 1),        # (0,0,0) -> (0,0,1): X3 at output position 4
        (3, 1),        # -> (0,1,0): X2 at position 3
        (2, 1),        # -> (1,0,0): X1 at position 2
    ]
