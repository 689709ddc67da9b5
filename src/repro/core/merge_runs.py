"""Run-time executor: merging pre-existing runs (Sections 3.2-3.4).

Given one segment (rows sharing the prefix ``P``) of an input sorted on
``P, X, M, T``, the rows with equal infix ``X`` form pre-existing runs
already sorted on the desired order ``P, M, X, T``.  This module
classifies rows via their old codes, adjusts codes for the new order,
merges the runs on a tournament tree, and emits output rows with valid
new codes — in the best case without a single column value comparison.

The same executor covers:

* cases 2/3 (no shared prefix — the whole input is one segment),
* the merge phase of cases 4-7 (driven per segment by
  :mod:`repro.core.modify`),
* the paper's Figure 11 "method 2" (merge without segmenting: runs are
  distinct ``P,X`` combinations over the whole input), via
  ``respect_prefix=False``,
* the instrumented no-code baseline of Figure 10 via ``use_ovc=False``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..obs import METRICS, TRACER
from ..ovc.codes import DUPLICATE, code_to_ovc
from ..ovc.compare import (
    make_ovc_entry_comparator,
    make_plain_entry_comparator,
)
from ..ovc.stats import ComparisonStats
from ..sorting.tournament import Entry, TreeOfLosers
from .adjust import RunHeadChain, map_bypass_ovc
from .analysis import ModificationPlan


def merge_preexisting_runs(
    rows: Sequence[tuple],
    ovcs: Sequence[tuple] | None,
    lo: int,
    hi: int,
    plan: ModificationPlan,
    out_project: Callable[[tuple], tuple],
    in_project: Callable[[tuple], tuple],
    stats: ComparisonStats,
    out_rows: list[tuple],
    out_ovcs: list[tuple] | None,
    use_ovc: bool = True,
    respect_prefix: bool = True,
    max_fan_in: int | None = None,
) -> None:
    """Merge the pre-existing runs of rows ``[lo, hi)`` into the output.

    ``out_project``/``in_project`` map a row to its normalized output /
    input key tuple.  With ``use_ovc`` the input must carry codes
    (``ovcs``); without, runs are detected by comparing infix columns
    of adjacent rows and the merge compares merge-key columns — the
    paper's baseline.  ``respect_prefix=False`` treats prefix changes
    as ordinary run boundaries (Figure 11's merge-only method).

    ``max_fan_in`` enables the paper's *graceful degradation*: when the
    input holds more pre-existing runs than a single merge step should
    carry, runs merge in waves of at most ``max_fan_in``, producing
    intermediate runs whose codes already live in the output key space
    (so later waves may compare infix columns — exactly the extra cost
    the paper accepts for multi-step merges).
    """
    if hi <= lo:
        return
    p = plan.prefix_len
    x = plan.infix_len
    m = plan.merge_len
    t = plan.tail_len
    k_in = plan.input_arity
    k_out = plan.output_arity
    dropped = plan.infix_dropped
    head_offset = p if respect_prefix else 0
    dup_boundary = p + x + m
    if max_fan_in is not None and max_fan_in < 2:
        raise ValueError("max_fan_in must be at least 2")

    with TRACER.span("segment.merge_runs", rows=hi - lo, use_ovc=use_ovc):
        if use_ovc:
            if ovcs is None:
                raise ValueError(
                    "offset-value codes required when use_ovc is set"
                )
            _merge_with_codes(
                rows, ovcs, lo, hi, plan, out_project, stats, out_rows,
                out_ovcs, p, x, m, t, k_in, k_out, dropped, head_offset,
                dup_boundary, max_fan_in,
            )
        else:
            _merge_baseline(
                rows, lo, hi, out_project, in_project, stats, out_rows,
                p, x, m, k_out, head_offset,
            )


def _merge_with_codes(
    rows, ovcs, lo, hi, plan, out_project, stats, out_rows, out_ovcs,
    p, x, m, t, k_in, k_out, dropped, head_offset, dup_boundary,
    max_fan_in=None,
):
    run_boundary = p + x
    chain = RunHeadChain(k_in, k_out, p, m)

    runs: list[list[Entry]] = []
    current: list[Entry] | None = None
    segment_head_offset = ovcs[lo][0]

    for idx in range(lo, hi):
        row = rows[idx]
        offset, value = ovcs[idx]
        if idx == lo or offset < run_boundary:
            # First row in segment or in run: save the old code, enter
            # the merge with offset |P| and a value extracted from the
            # first merge column.
            chain.save((offset, value))
            okeys = out_project(row)
            stats.key_extractions += 1
            code = (k_out - head_offset, okeys[head_offset])
            current = []
            runs.append(current)
            current.append(Entry(okeys, code, row, len(runs) - 1))
        elif offset < dup_boundary:
            # Other row: offset drops by |X|, value retained.
            okeys = out_project(row)
            new_offset = offset - x
            current.append(
                Entry(okeys, (k_out - new_offset, value), row, len(runs) - 1)
            )
        else:
            # Duplicate/tail row: bypasses the merge glued to its
            # predecessor; its output code maps positionally.
            mapped = map_bypass_ovc(
                (offset, value), p, x, m, t, k_out, dropped
            )
            entry = current[-1]
            if entry.extra is None:
                entry.extra = []
            entry.extra.append((row, mapped))

    TRACER.annotate(runs=len(runs))
    if METRICS.enabled:
        # Fan-in of this merge plus the pre-existing run length
        # distribution — the work shape behind Figure 11's method 2/3.
        METRICS.histogram("merge.fan_in").observe(len(runs))
        run_rows = METRICS.histogram("merge.run_rows")
        for run_entries in runs:
            run_rows.observe(len(run_entries))

    def restricted_comparator(batch_base: int):
        def on_restricted_tie(a: Entry, b: Entry, a_wins: bool) -> tuple:
            # Rows from different runs, equal through all merge keys.
            # With a dropped infix they are new duplicates; otherwise
            # the loser's code describes the runs' infix difference,
            # derived from saved run-head codes without comparing any
            # infix column.
            if dropped:
                return DUPLICATE
            winner, loser = (a, b) if a_wins else (b, a)
            return chain.derive_output_code(
                batch_base + winner.run, batch_base + loser.run
            )

        limit = p + m if p + m < k_out else None
        return make_ovc_entry_comparator(
            k_out, stats, limit=limit, on_restricted_tie=on_restricted_tie
        )

    def merge_batch(batch: list[list[Entry]], compare) -> list[Entry]:
        for local, run_entries in enumerate(batch):
            for e in run_entries:
                e.run = local
        tree = TreeOfLosers([iter(r) for r in batch], compare)
        out = list(tree)
        # Every wave moves its rows once — the real cost of graceful
        # degradation (comparisons stay near n*log2(total runs)).
        stats.rows_moved += len(out)
        return out

    if max_fan_in is not None and len(runs) > max_fan_in:
        # Graceful degradation: merge waves of runs into intermediate
        # runs.  The first wave still never touches infix columns (the
        # run-head chain covers its batches); later waves hold codes in
        # full output-key space, so plain code comparison applies.
        if METRICS.enabled:
            METRICS.counter("merge.degraded_merges").inc()
        level: list[list[Entry]] = []
        for base in range(0, len(runs), max_fan_in):
            batch = runs[base : base + max_fan_in]
            level.append(merge_batch(batch, restricted_comparator(base)))
        while len(level) > max_fan_in:
            nxt: list[list[Entry]] = []
            plain = make_ovc_entry_comparator(k_out, stats)
            for base in range(0, len(level), max_fan_in):
                nxt.append(merge_batch(level[base : base + max_fan_in], plain))
            level = nxt
        final = merge_batch(level, make_ovc_entry_comparator(k_out, stats))
    else:
        final = merge_batch(runs, restricted_comparator(0))

    first_out = len(out_rows)
    duplicate = (k_out, 0)
    for entry in final:
        out_rows.append(entry.row)
        # Read the value off the row's own key: a code derived from
        # run-head codes holds an equal value, maybe of another type.
        offset, _ = code_to_ovc(entry.code, k_out)
        out_ovcs.append(
            (offset, entry.keys[offset]) if offset < k_out else duplicate
        )
        if entry.extra is not None:
            for dup_row, dup_ovc in entry.extra:
                out_rows.append(dup_row)
                out_ovcs.append(dup_ovc)
                stats.rows_moved += 1
    if head_offset > 0 and len(out_rows) > first_out:
        # The segment's first output row differs from the preceding
        # segment where the segment's first input row does.
        d = segment_head_offset
        out_ovcs[first_out] = (d, final[0].keys[d])


def _merge_baseline(
    rows, lo, hi, out_project, in_project, stats, out_rows,
    p, x, m, k_out, head_offset,
):
    """Merge pre-existing runs without codes (the paper's baseline).

    Run boundaries are found by comparing each row's prefix+infix
    columns with its predecessor's; the merge compares merge-key
    columns and resolves ties by run index (runs are infix-ordered, so
    this is both stable and correct for a retained infix).
    """
    run_boundary = p + x
    runs: list[list[Entry]] = []
    prev_ikeys: tuple | None = None
    current: list[Entry] | None = None
    for idx in range(lo, hi):
        row = rows[idx]
        ikeys = in_project(row)
        is_head = idx == lo
        if not is_head:
            stats.row_comparisons += 1
            boundary_at = run_boundary
            for c in range(run_boundary):
                stats.column_comparisons += 1
                if ikeys[c] != prev_ikeys[c]:
                    boundary_at = c
                    break
            is_head = boundary_at < run_boundary
        if is_head:
            current = []
            runs.append(current)
        current.append(Entry(out_project(row), None, row, len(runs) - 1))
        prev_ikeys = ikeys

    compare = make_plain_entry_comparator(p + m, stats, start=head_offset)
    tree = TreeOfLosers([iter(r) for r in runs], compare)
    for entry in tree:
        out_rows.append(entry.row)
        stats.rows_moved += 1
