"""Exhaustive differential testing on small universes.

Hypothesis samples; this module *enumerates*: every multiset of up to
three rows over a tiny domain, against every permutation-derived
desired order, across all applicable methods — a few thousand cases
that corner every branch of classification, adjustment, and merging.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations_with_replacement, permutations

import pytest

from repro.core.analysis import analyze_order_modification
from repro.core.modify import modify_sort_order
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs, verify_ovcs

SCHEMA = Schema.of("A", "B", "C")
SPEC = SortSpec.of("A", "B", "C")

# All 8 possible rows over {0,1}^3.
UNIVERSE = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]

# Desired orders: every permutation and every non-empty prefix of one.
ORDERS: list[tuple[str, ...]] = []
for perm in permutations(("A", "B", "C")):
    for k in (1, 2, 3):
        if perm[:k] not in ORDERS:
            ORDERS.append(perm[:k])


def all_tables(max_rows: int = 3):
    for size in range(max_rows + 1):
        for combo in combinations_with_replacement(UNIVERSE, size):
            yield list(combo)


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: ",".join(o))
def test_every_small_table_every_order(order):
    spec = SortSpec(order)
    key = spec.key_for(SCHEMA)
    for rows in all_tables():
        table = Table(SCHEMA, sorted(rows), SPEC)
        table = replace(table, ovcs=derive_ovcs(table.rows, (0, 1, 2)))
        result = modify_sort_order(table, spec)
        expected = sorted(table.rows, key=key)
        assert list(result.rows) == expected, (rows, order)
        assert verify_ovcs(
            result.rows, result.ovcs, spec.positions(SCHEMA)
        ), (rows, order)


@pytest.mark.parametrize(
    "method", ["segment_sort", "merge_runs", "combined", "full_sort"]
)
def test_every_small_table_every_method(method):
    """Forced methods over all 4-row tables for one representative
    order per method family."""
    order_for = {
        "segment_sort": ("A", "C", "B"),
        "merge_runs": ("B", "A", "C"),
        "combined": ("A", "C", "B"),
        "full_sort": ("C", "B", "A"),
    }
    spec = SortSpec(order_for[method])
    key = spec.key_for(SCHEMA)
    for rows in all_tables(3):
        table = Table(SCHEMA, sorted(rows), SPEC)
        table = replace(table, ovcs=derive_ovcs(table.rows, (0, 1, 2)))
        result = modify_sort_order(table, spec, method=method)
        assert list(result.rows) == sorted(table.rows, key=key), (rows, method)
        assert verify_ovcs(result.rows, result.ovcs, spec.positions(SCHEMA))


def test_all_order_pairs_analyze_without_error():
    """The analyzer must return a plan for every (input, output) pair
    of orders over three columns — no combination may crash."""
    specs = [SortSpec(p[:k]) for p in permutations(("A", "B", "C")) for k in (1, 2, 3)]
    for inp in specs:
        for out in specs:
            plan = analyze_order_modification(inp, out)
            assert plan.strategy is not None
