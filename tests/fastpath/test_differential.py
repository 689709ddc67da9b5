"""Differential suite: the fast engine is bit-identical to reference.

Every Table 1 case, every forceable method, ascending and descending
columns, strings, duplicate-heavy domains, and the empty/singleton
edges — asserting *identical* rows AND output offset-value codes, not
just a correct sort.  The generators mirror
``tests/test_fuzz_differential.py`` so the two suites cover the same
input distribution.

The merge kernel moves duplicate/tail rows behind their predecessor as
slices wherever such rows are at least half of the input, which is
otherwise sorted on its full output key by the segment-sort kernel;
the domain shapes put inputs on both sides of that choice, the cases cover all three tail mappings (positional: cases
3/5/7; dropped infix: 2/4/6; clamped: ``CLAMPED``), and every
comparison also runs through the permutation-emitting entry point.
Both engines hand back the input's own tuple objects, which is what
lets the order cache recover a permutation by identity.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core.analysis import Strategy, analyze_order_modification
from repro.core.classify import code_offsets, split_segments
from repro.core.enforce import enforce_order
from repro.core.modify import modify_sort_order
from repro.engine.modify_op import StreamingModify
from repro.engine.scans import TableScan
from repro.exec import ExecutionConfig
from repro.engine.sort_op import Sort
from repro.fastpath import execute
from repro.model import Schema, SortSpec, Table
from repro.ovc.derive import derive_ovcs
from repro.ovc.stats import ComparisonStats
from repro.workloads.generators import (
    fig10_output_spec,
    fig10_table,
    fig11_output_spec,
    fig11_table,
)

SCHEMA = Schema.of("A", "B", "C", "D")

# Input-domain shapes from the fuzz suite: balanced, few segments/many
# runs, tiny segments, constant prefix, duplicate-heavy.
SHAPES = [
    (8, 8, 8, 8),
    (2, 200, 4, 4),
    (500, 2, 2, 2),
    (1, 1, 300, 300),
    (3, 3, 3, 1),
]

# The eight prototype cases of Table 1 (input order -> output order).
TABLE1 = {
    0: (("A", "B"), ("A",)),
    1: (("A",), ("A", "B")),
    2: (("A", "B"), ("B",)),
    3: (("A", "B"), ("B", "A")),
    4: (("A", "B", "C"), ("A", "C")),
    5: (("A", "B", "C"), ("A", "C", "B")),
    6: (("A", "B", "C", "D"), ("A", "C", "D")),
    7: (("A", "B", "C", "D"), ("A", "C", "B", "D")),
}

# Retained infix with input key columns beyond the output key: the
# codes of duplicate/tail rows past the output key clamp to "duplicate".
CLAMPED = {
    8: (("A", "B", "C"), ("B", "A")),
    9: (("A", "B", "C", "D"), ("A", "C", "B")),
}
CASES = {**TABLE1, **CLAMPED}

METHODS = ["auto", "noop", "segment_sort", "merge_runs", "combined", "full_sort"]

FAST = ExecutionConfig(engine="fast")
REFERENCE = ExecutionConfig(engine="reference")


def _make_table(in_columns, seed, n, desc=False, strings=False, mixed=False):
    rng = random.Random(seed)
    shape = SHAPES[seed % len(SHAPES)]

    def cell(c, d):
        v = rng.randrange(d)
        if c == 1 and strings:
            return f"s{v:03d}"
        if c == 1 and mixed and v == 1:
            return rng.choice((1, 1.0, True))  # equal, three types
        return v

    cols = [f"{c} DESC" if (desc and i == 1) else c for i, c in enumerate(in_columns)]
    spec = SortSpec(cols)
    key = spec.key_for(SCHEMA)
    rows = sorted(
        (tuple(cell(c, d) for c, d in enumerate(shape)) for _ in range(n)),
        key=key,
    )
    table = Table(SCHEMA, rows, spec)
    table = replace(table, ovcs=derive_ovcs(rows, spec.positions(SCHEMA), spec.directions))
    return table


def _assert_identical(table, spec, method):
    """Fast output == reference output, bit for bit, or both reject."""
    try:
        ref = modify_sort_order(table, spec, method=method, config=REFERENCE)
    except ValueError:
        with pytest.raises(ValueError):
            modify_sort_order(table, spec, method=method, config=FAST)
        return
    fast = modify_sort_order(table, spec, method=method, config=FAST)
    assert fast.rows == ref.rows
    assert _typed(fast.ovcs) == _typed(ref.ovcs)
    _assert_inputs_own_rows(table, ref, fast)
    plan = analyze_order_modification(table.sort_spec, spec)
    if method == "auto" and not plan.backward:
        for config in (REFERENCE, FAST):
            done = enforce_order(
                table, spec, stats=ComparisonStats(), config=config,
                want_perm=True,
            )
            assert done.table.rows == ref.rows
            assert _typed(done.table.ovcs) == _typed(ref.ovcs)
            _assert_inputs_own_rows(table, done.table)
            if config is FAST:
                # Every strategy emits its output as a permutation on
                # request.
                assert [table.rows[i] for i in done.perm] == list(ref.rows)


def _typed(ovcs):
    """Codes compared type-strictly: ``1``, ``1.0`` and ``True`` are
    equal values but different codes."""
    return [(offset, type(value), value) for offset, value in ovcs]


def _assert_inputs_own_rows(table, *results):
    """Each output row *is* one of the input's tuple objects — no
    executor copies or rebuilds a row."""
    own = {id(row) for row in table.rows}
    for result in results:
        assert len(result.rows) == len(table.rows)
        assert all(id(row) in own for row in result.rows)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", range(len(SHAPES)))
def test_table1_cases_bit_identical(case, method, seed):
    in_cols, out_cols = CASES[case]
    table = _make_table(in_cols, seed, n=700)
    _assert_identical(table, SortSpec(out_cols), method)


@pytest.mark.parametrize(
    "singles, chunked", [(0, True), (1, False)],
    ids=["two-rows-per-head", "one-head-more"],
)
def test_both_sides_of_the_head_count_threshold(monkeypatch, singles, chunked):
    """Exactly two rows per head moves slices; one more head and the
    merge input is sorted on its full output key by the segment-sort
    kernel — same bits either way."""
    ran = []
    for name in ("fast_merge_runs", "fast_sort_segment"):
        real = getattr(execute, name)
        monkeypatch.setattr(
            execute, name,
            lambda *a, _real=real, _name=name: ran.append(_name) or _real(*a),
        )
    rows = [(a, b, 0, 0) for a in range(6) for b in range(10)] * 2
    rows += [(9, 9 + i, 0, 0) for i in range(singles)]
    rows.sort()
    in_spec = SortSpec(("A", "B"))
    table = Table(SCHEMA, rows, in_spec, derive_ovcs(rows, in_spec.positions(SCHEMA)))
    _assert_identical(table, SortSpec(("B", "A")), "merge_runs")
    assert set(ran) == {"fast_merge_runs" if chunked else "fast_sort_segment"}


@pytest.mark.parametrize("case", [5, 6, 7])
def test_row_wise_combined_segments_are_the_prefix_segments(
    monkeypatch, case
):
    """A ``COMBINED`` input with fewer than two rows per head is bound
    row-wise with no head list, and its segments come from one scan of
    the prefix offsets: exactly ``split_segments`` without candidates."""
    segments = []
    real = execute.fast_sort_segment
    monkeypatch.setattr(
        execute, "fast_sort_segment",
        lambda *a: segments.append(a[6:8]) or real(*a),
    )
    in_cols, out_cols = TABLE1[case]
    table = _make_table(in_cols, 0, n=700)
    spec = SortSpec(out_cols)
    plan = analyze_order_modification(table.sort_spec, spec)
    assert plan.strategy is Strategy.COMBINED
    offsets = code_offsets(table.ovcs)
    assert execute.chunk_heads(offsets, plan, len(table.rows)) is None
    _assert_identical(table, spec, "combined")
    segments.clear()
    modify_sort_order(table, spec, method="combined", config=FAST)
    assert segments == list(split_segments(table.ovcs, plan.prefix_len))
    assert len(segments) > 1


@pytest.mark.parametrize("case", sorted(TABLE1))
@pytest.mark.parametrize("desc_side", ["in", "out", "both"])
def test_descending_columns_bit_identical(case, desc_side):
    """A descending output column at each output position in turn."""
    in_cols, out_cols = TABLE1[case]
    table = _make_table(in_cols, 1, n=500, desc=desc_side in ("in", "both"))
    if desc_side == "in":
        _assert_identical(table, SortSpec(out_cols), "auto")
        return
    for at in range(len(out_cols)):
        out = [f"{c} DESC" if i == at else c for i, c in enumerate(out_cols)]
        _assert_identical(table, SortSpec(out), "auto")


@pytest.mark.parametrize("case", sorted(TABLE1))
def test_string_columns_bit_identical(case):
    in_cols, out_cols = TABLE1[case]
    table = _make_table(in_cols, 2, n=500, strings=True)
    _assert_identical(table, SortSpec(out_cols), "auto")


@pytest.mark.parametrize("case", sorted(TABLE1))
@pytest.mark.parametrize("method", METHODS)
def test_mixed_numeric_column_type_strict(case, method):
    """A key column mixing ``1``, ``1.0`` and ``True`` beside plain-int
    columns, ascending and (where the output has it) descending: every
    code value keeps its own row's type.  Plain-int columns get code
    books on a table's second use, so each order runs twice; a book
    keyed by value alone would hand the ``1.0`` and ``True`` rows the
    ``int`` code.  The oracle is stable ``sorted()`` plus fresh codes
    (both engines against it: ``tests/core/test_type_strict_codes.py``)."""
    in_cols, out_cols = TABLE1[case]
    table = _make_table(in_cols, 0, n=700, mixed=True)
    orders = [SortSpec(out_cols)]
    if "B" in out_cols:
        flipped = [f"{c} DESC" if c == "B" else c for c in out_cols]
        orders.append(SortSpec(flipped))
    for spec in orders:
        rows = sorted(table.rows, key=spec.key_for(SCHEMA))
        want = _typed(
            derive_ovcs(rows, spec.positions(SCHEMA), spec.directions)
        )
        for _ in range(2):
            try:
                fast = modify_sort_order(
                    table, spec, method=method, config=FAST
                )
            except ValueError:
                break  # the method does not apply to this order
            assert list(map(id, fast.rows)) == list(map(id, rows))
            assert _typed(fast.ovcs) == want


# The paper's figure workloads: 2-, 8- and 16-column lists (Figure 10,
# A,B -> B,A) and 24-column keys (Figure 11, A,B,C -> A,C,B).
FIGURE_CELLS = [
    ("fig10", decide, list_len, "merge_runs")
    for decide in ("first", "last")
    for list_len in (2, 8, 16)
] + [
    ("fig11", None, n_segments, method)
    for n_segments in (2, 512)
    for method in ("segment_sort", "merge_runs", "combined")
]


@pytest.mark.parametrize("figure, decide, size, method", FIGURE_CELLS)
def test_figure_workloads_bit_identical(figure, decide, size, method):
    n_rows = 1 << 11
    if figure == "fig10":
        table = fig10_table(n_rows, size, decide=decide)
        spec = fig10_output_spec(size)
    else:
        table = fig11_table(n_rows, size)
        spec = fig11_output_spec(8)
    _assert_identical(table, spec, method)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("method", METHODS)
def test_tiny_inputs_bit_identical(n, method):
    table = _make_table(("A", "B", "C"), 0, n=n)
    _assert_identical(table, SortSpec(("A", "C", "B")), method)


@pytest.mark.parametrize("seed", range(4))
def test_duplicate_heavy_bit_identical(seed):
    # Shape (3,3,3,1): most adjacent rows are exact duplicates.
    table = _make_table(("A", "B", "C", "D"), 4, n=900)
    for out in [("A", "C", "B", "D"), ("B", "A"), ("D",)]:
        _assert_identical(table, SortSpec(out), "auto")


def test_auto_engine_dispatch_rules():
    """``auto`` uses fast exactly when nothing reference-only is asked."""
    table = _make_table(("A", "B"), 0, n=300)
    spec = SortSpec(("B", "A"))
    # No stats collector -> fast path -> a fresh collector sees nothing.
    probe = ComparisonStats()
    modify_sort_order(table, spec)  # auto/fast; must not throw
    # Passing stats forces the reference path: counters move.
    modify_sort_order(table, spec, stats=probe)
    assert probe.column_comparisons + probe.ovc_comparisons > 0
    # Forced fast with use_ovc=False is rejected.
    with pytest.raises(ValueError):
        modify_sort_order(table, spec, use_ovc=False, config=ExecutionConfig(engine="fast"))
    with pytest.raises(ValueError):
        modify_sort_order(
            table, spec, config=ExecutionConfig(engine="bogus")
        )


def test_reference_counters_unchanged_by_dispatcher():
    """The dispatcher must not perturb the reference path's counters."""
    table = _make_table(("A", "B", "C"), 3, n=800)
    spec = SortSpec(("A", "C", "B"))
    a, b = ComparisonStats(), ComparisonStats()
    modify_sort_order(table, spec, stats=a)
    modify_sort_order(table, spec, stats=b, config=ExecutionConfig(engine="reference"))
    assert (a.row_comparisons, a.column_comparisons, a.ovc_comparisons) == (
        b.row_comparisons,
        b.column_comparisons,
        b.ovc_comparisons,
    )


def test_sort_operator_engines_agree():
    table = _make_table(("A", "B", "C"), 1, n=600)
    spec = SortSpec(("A", "C", "B"))
    ref = Sort(TableScan(table), spec).to_table()
    fast = Sort(TableScan(table), spec, config=ExecutionConfig(engine="fast")).to_table()
    assert fast.rows == ref.rows
    assert fast.ovcs == ref.ovcs
    # Unordered child -> internal sort path.
    unordered = Table(SCHEMA, list(reversed(table.rows)), None)
    ref = Sort(TableScan(unordered), spec).to_table()
    fast = Sort(TableScan(unordered), spec, config=ExecutionConfig(engine="fast")).to_table()
    assert fast.rows == ref.rows
    assert fast.ovcs == ref.ovcs


def test_streaming_modify_engines_agree():
    table = _make_table(("A", "B", "C"), 2, n=600)
    spec = SortSpec(("A", "C", "B"))
    ref = list(StreamingModify(TableScan(table), spec))
    fast = list(StreamingModify(TableScan(table), spec, config=ExecutionConfig(engine="fast")))
    assert fast == ref


def test_external_modify_engines_agree():
    table = _make_table(("A", "B", "C"), 0, n=600)
    spec = SortSpec(("A", "C", "B"))
    for capacity in (64, 10_000):
        ref = Sort(TableScan(table), spec, memory_capacity=capacity).to_table()
        fast = Sort(
            TableScan(table), spec, memory_capacity=capacity,
            config=ExecutionConfig(engine="fast"),
        ).to_table()
        assert fast.rows == ref.rows
        assert fast.ovcs == ref.ovcs
        _assert_inputs_own_rows(table, ref, fast)
