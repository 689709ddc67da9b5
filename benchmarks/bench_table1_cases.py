"""Table 1: one benchmark per prototype case, measuring the win of
exploiting the existing order (auto strategy) against sorting from
scratch on the same data.

Four timings per case, in one pytest-benchmark group: the ``auto``
strategy; ``method="full_sort"`` (the same fast kernel told to ignore
the existing order — *not* a floor); and the two honest floors, a bare
``sorted(key=itemgetter(...))`` (rows only) and ``sorted()`` +
``derive_ovcs`` (rows and codes, what ``modify_sort_order`` returns).
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_table1_case_auto(benchmark, n_rows_small, case):
    input_key, output_key = CASES[case]
    table = _table(input_key, n_rows_small)
    benchmark.group = f"table1 case {case}: {','.join(input_key)} -> {','.join(output_key)}"
    result = benchmark(
        modify_sort_order, table, SortSpec(output_key), "auto"
    )
    assert result.is_sorted()


@pytest.mark.parametrize("case", sorted(CASES))
def test_table1_case_full_sort_baseline(benchmark, n_rows_small, case):
    input_key, output_key = CASES[case]
    table = _table(input_key, n_rows_small)
    benchmark.group = f"table1 case {case}: {','.join(input_key)} -> {','.join(output_key)}"
    result = benchmark(
        modify_sort_order, table, SortSpec(output_key), "full_sort"
    )
    assert result.is_sorted()


def _sorted_with_codes(rows, key, positions):
    out = sorted(rows, key=key)
    return out, derive_ovcs(out, positions)


@pytest.mark.parametrize("floor", ["sorted", "sorted+derive"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_table1_case_sorted_floor(benchmark, n_rows_small, case, floor):
    input_key, output_key = CASES[case]
    table = _table(input_key, n_rows_small)
    positions = SortSpec(output_key).positions(SCHEMA)
    key = itemgetter(*positions)
    benchmark.group = f"table1 case {case}: {','.join(input_key)} -> {','.join(output_key)}"
    if floor == "sorted":
        rows = benchmark(sorted, table.rows, key=key)
    else:
        rows, _ = benchmark(_sorted_with_codes, table.rows, key, positions)
    assert rows == list(modify_sort_order(table, SortSpec(output_key)).rows)
