"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs


def paper_example_table() -> Table:
    """The input of Figure 5: sorted on A, B, C with its exact codes."""
    schema = Schema.of("A", "B", "C")
    rows = [
        (1, 1, 1),
        (2, 1, 1),
        (2, 1, 3),
        (2, 2, 1),
        (2, 2, 2),
        (2, 3, 4),
        (2, 3, 4),
        (2, 3, 5),
        (3, 1, 1),
    ]
    table = Table(schema, rows, SortSpec.of("A", "B", "C"))
    table = replace(table, ovcs=derive_ovcs(rows, (0, 1, 2)))
    return table


@pytest.fixture
def figure5_table() -> Table:
    return paper_example_table()


def ground_truth_modify(table: Table, new_spec: SortSpec) -> list[tuple]:
    """Stable re-sort via Python's sorted(): the reference output."""
    key = new_spec.key_for(table.schema)
    return sorted(table.rows, key=key)
