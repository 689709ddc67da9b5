"""Table 1: one benchmark per prototype case, measuring the win of
exploiting the existing order (auto strategy) against sorting from
scratch on the same data.

Four timings per case, in one pytest-benchmark group: the ``auto``
strategy; ``method="full_sort"`` (the same fast kernel told to ignore
the existing order — *not* a floor); and the two honest floors, a bare
``sorted(key=itemgetter(...))`` (rows only) and ``sorted()`` +
``derive_ovcs`` (rows and codes, what ``modify_sort_order`` returns).

Each case also runs with its last moved output column descending (the
last output column where nothing moved: case 0 becomes ``A DESC``, a
backward plan), so a descending key is timed beside its ascending twin.
"""

from __future__ import annotations

from operator import itemgetter

import pytest

from repro.core.modify import modify_sort_order
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs
from repro.workloads.generators import random_sorted_table

SCHEMA = Schema.of("A", "B", "C", "D")

CASES = {
    0: (("A", "B"), ("A",)),
    1: (("A",), ("A", "B")),
    2: (("A", "B"), ("B",)),
    3: (("A", "B"), ("B", "A")),
    4: (("A", "B", "C"), ("A", "C")),
    5: (("A", "B", "C"), ("A", "C", "B")),
    6: (("A", "B", "C", "D"), ("A", "C", "D")),
    7: (("A", "B", "C", "D"), ("A", "C", "B", "D")),
}


def _flip_last_moved(input_key, output_key) -> tuple:
    """``output_key`` with its last column that left its input position
    descending (its last column when none did)."""
    moved = [
        i for i, c in enumerate(output_key)
        if i >= len(input_key) or input_key[i] != c
    ]
    at = moved[-1] if moved else len(output_key) - 1
    return tuple(
        f"{c} DESC" if i == at else c for i, c in enumerate(output_key)
    )


#: Every case ascending (ids ``0``..``7``) and with one descending column
#: (ids ``0-desc``..``7-desc``).
CELLS = {
    **{str(case): keys for case, keys in CASES.items()},
    **{
        f"{case}-desc": (keys[0], _flip_last_moved(*keys))
        for case, keys in CASES.items()
    },
}


def _table(input_key, n_rows: int) -> Table:
    # Small domains create realistic segments/runs/duplicates.
    domains = {"A": 32, "B": 64, "C": 256, "D": 8}
    return random_sorted_table(
        SCHEMA,
        SortSpec(input_key),
        n_rows,
        domains=[domains[c] for c in SCHEMA.columns],
        seed=7,
    )


@pytest.mark.parametrize("case", CELLS)
def test_table1_case_auto(benchmark, n_rows_small, case):
    input_key, output_key = CELLS[case]
    table = _table(input_key, n_rows_small)
    benchmark.group = f"table1 case {case}: {','.join(input_key)} -> {','.join(output_key)}"
    result = benchmark(
        modify_sort_order, table, SortSpec(output_key), "auto"
    )
    assert result.is_sorted()


@pytest.mark.parametrize("case", CELLS)
def test_table1_case_full_sort_baseline(benchmark, n_rows_small, case):
    input_key, output_key = CELLS[case]
    table = _table(input_key, n_rows_small)
    benchmark.group = f"table1 case {case}: {','.join(input_key)} -> {','.join(output_key)}"
    result = benchmark(
        modify_sort_order, table, SortSpec(output_key), "full_sort"
    )
    assert result.is_sorted()


def _sorted_with_codes(rows, key, positions, directions):
    out = sorted(rows, key=key)
    return out, derive_ovcs(out, positions, directions)


@pytest.mark.parametrize("floor", ["sorted", "sorted+derive"])
@pytest.mark.parametrize("case", CELLS)
def test_table1_case_sorted_floor(benchmark, n_rows_small, case, floor):
    input_key, output_key = CELLS[case]
    table = _table(input_key, n_rows_small)
    spec = SortSpec(output_key)
    positions = spec.positions(SCHEMA)
    # A descending column needs the normalizing key; an ascending key
    # keeps the bare ``itemgetter``.
    key = (
        itemgetter(*positions) if all(spec.directions)
        else spec.key_for(SCHEMA)
    )
    benchmark.group = f"table1 case {case}: {','.join(input_key)} -> {','.join(output_key)}"
    if floor == "sorted":
        rows = benchmark(sorted, table.rows, key=key)
    else:
        rows, _ = benchmark(
            _sorted_with_codes, table.rows, key, positions, spec.directions
        )
    assert rows == list(modify_sort_order(table, SortSpec(output_key)).rows)
