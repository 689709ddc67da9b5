"""Governed runs are bit-identical: rows, codes, AND comparison counts.

The memory budget changes where bytes live — buffered output spills to
disk and is read back — never what work happens.  These tests run every
Table 1 case with a budget far smaller than the input and assert the
three-way identity against the ungoverned run, plus that spills really
occurred (otherwise the test proves nothing).
"""

from __future__ import annotations

import pytest

from repro.core.external_modify import modify_sort_order_external
from repro.core.modify import modify_sort_order
from repro.exec import ExecutionConfig
from repro.model import Schema, SortSpec
from repro.obs import METRICS
from repro.ovc.stats import ComparisonStats
from repro.workloads.generators import random_sorted_table

SCHEMA = Schema.of("A", "B", "C", "D")
DOMAINS = [12, 24, 48, 8]

# The eight prototype cases of Table 1 (input order -> desired order).
TABLE1 = [
    (("A", "B"), ("A",)),
    (("A",), ("A", "B")),
    (("A", "B"), ("B",)),
    (("A", "B"), ("B", "A")),
    (("A", "B", "C"), ("A", "C")),
    (("A", "B", "C"), ("A", "C", "B")),
    (("A", "B", "C", "D"), ("A", "C", "D")),
    (("A", "B", "C", "D"), ("A", "C", "B", "D")),
]

#: Far below the footprint of the 1500-row test tables, so the governed
#: sink must spill and reload (except the pure-noop case 0 tail).
TINY_BUDGET = "2KiB"


def _table(inp, n_rows=1500, seed=3):
    return random_sorted_table(
        SCHEMA, SortSpec(inp), n_rows, domains=DOMAINS, seed=seed
    )


def _run_metered(fn):
    METRICS.enable(clear=True)
    try:
        result = fn()
        return result, METRICS.as_dict()
    finally:
        METRICS.reset()
        METRICS.disable()


@pytest.mark.parametrize(
    "inp,out", TABLE1, ids=[f"case{i}" for i in range(len(TABLE1))]
)
def test_budget_exhaustion_is_bit_identical(inp, out, tmp_path):
    table = _table(inp)
    spec = SortSpec(out)

    base_stats = ComparisonStats()
    baseline = modify_sort_order(table, spec, stats=base_stats)

    gov_stats = ComparisonStats()
    cfg = ExecutionConfig(
        memory_budget=TINY_BUDGET, spill_dir=str(tmp_path)
    )
    governed, snapshot = _run_metered(
        lambda: modify_sort_order(table, spec, stats=gov_stats, config=cfg)
    )

    assert governed.rows == baseline.rows
    assert governed.ovcs == baseline.ovcs
    assert gov_stats.as_dict() == base_stats.as_dict()
    counters = snapshot.get("counters", {})
    assert counters.get("exec.spill.runs", 0) > 0
    assert counters.get("exec.spill.bytes_written", 0) > 0
    # Spill traffic is read back in full during materialization.
    assert counters.get("exec.spill.bytes_read", 0) == counters.get(
        "exec.spill.bytes_written"
    )


@pytest.mark.parametrize("method", ["segment_sort", "combined", "full_sort"])
def test_budget_identity_per_method(method, tmp_path):
    table = _table(("A", "B", "C"))
    spec = SortSpec.of("A", "C", "B")
    base_stats = ComparisonStats()
    baseline = modify_sort_order(table, spec, method=method, stats=base_stats)
    gov_stats = ComparisonStats()
    cfg = ExecutionConfig(memory_budget="1KiB", spill_dir=str(tmp_path))
    governed = modify_sort_order(
        table, spec, method=method, stats=gov_stats, config=cfg
    )
    assert governed.rows == baseline.rows
    assert governed.ovcs == baseline.ovcs
    assert gov_stats.as_dict() == base_stats.as_dict()


def test_budget_identity_fast_engine(tmp_path):
    table = _table(("A", "B", "C"))
    spec = SortSpec.of("A", "C", "B")
    baseline = modify_sort_order(table, spec, config=ExecutionConfig(engine="fast"))
    cfg = ExecutionConfig(
        engine="fast", memory_budget="1KiB", spill_dir=str(tmp_path)
    )
    governed, snapshot = _run_metered(
        lambda: modify_sort_order(table, spec, config=cfg)
    )
    assert governed.rows == baseline.rows
    assert governed.ovcs == baseline.ovcs
    assert snapshot.get("counters", {}).get("exec.spill.runs", 0) > 0


def test_budget_identity_external_modify(tmp_path):
    table = _table(("A", "B", "C"))
    spec = SortSpec.of("A", "C", "B")
    base_stats = ComparisonStats()
    baseline = modify_sort_order_external(
        table, spec, memory_capacity=64, stats=base_stats
    )
    gov_stats = ComparisonStats()
    cfg = ExecutionConfig(memory_budget="1KiB", spill_dir=str(tmp_path))
    governed = modify_sort_order_external(
        table, spec, memory_capacity=64, stats=gov_stats, config=cfg
    )
    assert governed.rows == baseline.rows
    assert governed.ovcs == baseline.ovcs
    assert gov_stats.as_dict() == base_stats.as_dict()


def test_env_budget_governs_bare_calls(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1KiB")
    monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
    table = _table(("A", "B", "C"))
    spec = SortSpec.of("A", "C", "B")
    governed, snapshot = _run_metered(lambda: modify_sort_order(table, spec))
    monkeypatch.delenv("REPRO_MEMORY_BUDGET")
    monkeypatch.delenv("REPRO_SPILL_DIR")
    baseline = modify_sort_order(table, spec)
    assert governed.rows == baseline.rows
    assert governed.ovcs == baseline.ovcs
    assert snapshot.get("counters", {}).get("exec.spill.runs", 0) > 0
