"""Seeded differential fuzzing at moderate scale.

Bigger inputs than the hypothesis suites (thousands of rows), many
seeds, every executor — the final safety net comparing each path
against Python's sort and against each other.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core.modify import modify_sort_order
from repro.engine.modify_op import StreamingModify
from repro.engine.scans import TableScan
from repro.engine.sort_op import Sort
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs, verify_ovcs

SCHEMA = Schema.of("A", "B", "C", "D")
SPEC = SortSpec.of("A", "B", "C", "D")

ORDERS = [
    ("A", "C", "B", "D"),
    ("A", "C", "D"),
    ("B", "C", "D", "A"),
    ("A", "D", "B", "C"),
    ("C", "A"),
]


def _table(seed: int, n: int = 3000) -> Table:
    rng = random.Random(seed)
    shape = rng.choice(
        [
            (8, 8, 8, 8),       # balanced
            (2, 200, 4, 4),     # few segments, many runs
            (500, 2, 2, 2),     # tiny segments
            (1, 1, 300, 300),   # constant prefix
            (3, 3, 3, 1),       # duplicate-heavy
        ]
    )
    rows = sorted(
        tuple(rng.randrange(d) for d in shape) for _ in range(n)
    )
    table = Table(SCHEMA, rows, SPEC)
    table = replace(table, ovcs=derive_ovcs(rows, (0, 1, 2, 3)))
    return table


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: ",".join(o))
def test_all_paths_agree(seed, order):
    table = _table(seed)
    spec = SortSpec(order)
    key = spec.key_for(SCHEMA)
    expected = tuple(sorted(table.rows, key=key))
    positions = spec.positions(SCHEMA)

    auto = modify_sort_order(table, spec)
    assert auto.rows == expected
    assert verify_ovcs(auto.rows, auto.ovcs, positions)

    baseline = modify_sort_order(table, spec, use_ovc=False)
    assert baseline.rows == expected

    capped = modify_sort_order(table, spec, config=ExecutionConfig(max_fan_in=3))
    assert capped.rows == expected
    assert verify_ovcs(capped.rows, capped.ovcs, positions)

    external = Sort(TableScan(table), spec, memory_capacity=257).to_table()
    assert external.rows == expected
    assert external.ovcs == tuple(derive_ovcs(expected, positions))

    streamed = StreamingModify(TableScan(table), spec)
    got = tuple(row for row, _ovc in streamed)
    assert got == expected
