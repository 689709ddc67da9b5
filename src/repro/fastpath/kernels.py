"""Batch kernels: segment sort and pre-existing-run merge, uncounted.

Both kernels operate on parallel lists — rows, paper-form input codes,
key values, packed key ints — with no ``Entry`` objects and no
per-comparison closures, and both emit codes equal to a fresh
derivation against the output predecessor, which is what the reference
tournament emits (its popped winners' codes are always relative to the
previously popped winner):

* :func:`fast_sort_segment` stable-sorts one segment on its packed
  post-prefix key and reads each code off two adjacent packed words:
  the bit length of their XOR names the first column the rows differ
  in.  Every row-wise segment runs it, including a merge input with
  fewer than ``CHUNK_MIN_ROWS_PER_HEAD`` rows per head, whose stable
  sort on the full output key *is* the merge's order.
* :func:`fast_merge_runs` stable-sorts only a segment's *heads* (Figure
  6: segment head, run heads, merge rows) on the packed *restricted*
  key (output columns up to the merge-key boundary) and moves the
  duplicate/tail rows behind each head as one slice — they "bypass the
  merge logic and immediately follow their predecessor".  The reference
  resolves restricted ties by run index, runs appear in input order,
  and a stable sort preserves input order among equal keys, so the
  order is the tournament's bit for bit; and CPython's Timsort merges
  the pre-existing runs as natural runs, with galloping, in C (a
  ``heapq`` k-way merge gives the same bits, with per-row tuple
  churn).  Heads behind their own run predecessor take the paper's O(1)
  adjustment (offset drops by ``|X|`` — :mod:`repro.core.adjust`);
  only cross-run adjacencies scan key values, over ``varying``.

Key values are read straight out of the source rows, key column ``d``
at ``pd = positions[d]``, in either direction: a descending column's
packed field is complemented (:func:`repro.fastpath.packed.directed`),
so the sorts need no normalized key, and only the code values emitted
on a descending column are normalized, as
:func:`repro.ovc.derive.codes_from_offsets` does.  Every code value is
read off its own row: equal values of two rows may differ in type
(``1``, ``1.0``, ``True``).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Sequence

from ..core.analysis import ModificationPlan
from ..model import normalize_value
from ..obs import TRACER
from .packed import gather

#: Per-segment spans only when someone is watching: the fast path's
#: point is speed, so the disabled cost stays one attribute check.
_NO_SPAN = nullcontext()

#: A merge input takes the chunk path when it holds at least this many
#: rows per head; below that, slicing per head costs more than coding
#: every row, and the input is sorted on its full output key instead
#: (measured, see docs/ALGORITHMS.md).
CHUNK_MIN_ROWS_PER_HEAD = 2

#: A key column's codes come from a book of shared code tuples when it
#: holds at least this many rows per possible value (measured, see
#: docs/ALGORITHMS.md).
BOOK_MIN_ROWS_PER_VALUE = 2


def fast_sort_segment(
    rows: Sequence[tuple],
    ovcs: Sequence[tuple] | None,
    packed: Sequence[int],
    codes: Sequence[tuple],
    positions: Sequence[int],
    directions: Sequence[bool],
    lo: int,
    hi: int,
    p: int,
    k_out: int,
    out_rows: list[tuple],
    out_ovcs: list[tuple],
    out_perm: list[int] | None = None,
) -> None:
    """Sort rows ``[lo, hi)`` (one segment, shared prefix ``p`` of the
    ``k_out`` output key columns) on the desired order.

    ``codes[(a ^ b).bit_length()]`` for two rows' differing ``packed``
    words is ``(d, pd, cells, book)``: the first column ``d`` they
    differ in, its index ``pd`` into a row and, for a column with a
    code book, the shared code ``book[cells[i]]`` of row ``i`` (a
    descending column without one has ``cells`` the rows, and ``book``
    normalizes the row's own value).  Mirrors
    :func:`repro.core.segmented.sort_segment` with ``use_ovc=True``.

    A stable sort's output *is* a permutation of its input — the
    ``order`` list the rows are gathered through.  With ``out_perm``
    the kernel also appends it (indices into ``rows``, parallel to
    ``out_rows``): what the order cache keeps of a result in place of a
    second row list.
    """
    if hi <= lo:
        return
    with TRACER.span(
        "fastpath.sort_segment", rows=hi - lo
    ) if TRACER.enabled else _NO_SPAN:
        if p >= k_out:
            # Shared prefix covers the whole desired key: all rows are
            # duplicates under the new order; copy through.
            out_rows.extend(rows[lo:hi])
            if out_perm is not None:
                out_perm.extend(range(lo, hi))
            out_ovcs.append(ovcs[lo])
            out_ovcs.extend([(k_out, 0)] * (hi - lo - 1))
            return

        order = sorted(range(lo, hi), key=packed.__getitem__)
        out_rows.extend(gather(rows, order))
        if out_perm is not None:
            out_perm.extend(order)

        first = order[0]
        # The segment's first output row takes the saved segment-head
        # offset; with no prefix it is coded against the imaginary
        # lowest row.
        d = ovcs[lo][0] if p > 0 else 0
        value = rows[first][positions[d]]
        out_ovcs.append((d, normalize_value(value, directions[d])))
        append = out_ovcs.append
        duplicate = (k_out, 0)
        prev = packed[first]
        for i in order[1:]:
            pk = packed[i]
            if pk == prev:
                # Equal packed suffix + shared segment prefix = duplicate.
                append(duplicate)
                continue
            # The highest differing bit lies in the first column the two
            # rows differ in: its code is one table read away.
            d, pd, cells, book = codes[(pk ^ prev).bit_length()]
            append((d, rows[i][pd]) if book is None else book[cells[i]])
            prev = pk


def fast_merge_runs(
    rows: Sequence[tuple],
    ovcs: Sequence[tuple],
    chunks: tuple[Sequence[int], Sequence[int], Sequence[int]],
    varying: Sequence[tuple],
    positions: Sequence[int],
    directions: Sequence[bool],
    lo: int,
    hi: int,
    plan: ModificationPlan,
    out_rows: list[tuple],
    out_ovcs: list[tuple],
    respect_prefix: bool = True,
    out_perm: list[int] | None = None,
) -> None:
    """Merge the pre-existing runs of rows ``[lo, hi)`` into the output
    (and their indices to ``out_perm``, see :func:`fast_sort_segment`).

    ``chunks`` is ``(heads, ends, keys)``: the ascending positions of
    the segment's chunk heads — ``lo`` and every row in ``(lo, hi)``
    whose old offset is below ``|P|+|X|+|M|`` — each chunk's end, and
    each head's packed restricted key (output key columns
    ``[head_offset, |P|+|M|)``).  ``varying`` pairs each output key
    column that can differ with its index into a row; a code value read
    off a row on a descending column (``directions``) is normalized.
    Mirrors :func:`repro.core.merge_runs.merge_preexisting_runs`.

    The rows between two heads equal their head through the prefix,
    infix and merge keys, so a stable sort keeps them behind it in
    input order: chunk ``[h, e)`` moves whole, and inside it every
    row's output predecessor is its input predecessor — the bypass
    mapping of :func:`repro.core.adjust.map_bypass_ovc` applies to the
    slice ``ovcs[h+1:e]`` without looking at a row.

    What holds for the whole call is tested once: the common case —
    followers keep their codes, no permutation wanted — has a loop of
    its own, and neither loop looks for the first output head.
    """
    if hi <= lo:
        return
    # The segment's first output row differs from the preceding
    # segment where its first input row does.
    d0 = ovcs[lo][0] if respect_prefix and plan.prefix_len > 0 else 0
    with TRACER.span(
        "fastpath.merge_segment", rows=hi - lo, heads=len(chunks[0])
    ) if TRACER.enabled else _NO_SPAN:
        heads, ends, keys = chunks
        x = plan.infix_len
        duplicate = (plan.output_arity, 0)
        dropped = plan.infix_dropped
        run_boundary = plan.prefix_len + x
        tail_boundary = run_boundary + plan.merge_len + plan.tail_len
        # With no input key column beyond the tail, old tail codes (and the
        # old duplicate code) are the new ones: the same tuples move over.
        positional = not dropped and plan.input_arity == tail_boundary

        order = sorted(range(len(heads)), key=keys.__getitem__)
        append = out_ovcs.append
        extend = out_ovcs.extend
        extend_rows = out_rows.extend
        first = len(out_ovcs)
        # The first output head has no output predecessor: the loops code
        # it against a stand-in (as if a chunk ended at row 0) and it is
        # re-coded after them, so neither loop tests for it.
        prev_end = 0
        if positional and out_perm is None:
            for j in order:
                h = heads[j]
                if prev_end == h and ovcs[h][0] >= run_boundary:
                    # Merge row behind its own run predecessor: the infix
                    # left its place before the merge keys; offset drops
                    # by |X|.
                    offset, value = ovcs[h]
                    append((offset - x, value))
                else:
                    # Cross-run adjacency: the one place column values meet.
                    prev_row = rows[prev_end - 1]
                    cur = rows[h]
                    for d, pd in varying:
                        if prev_row[pd] != cur[pd]:
                            append((d, cur[pd]) if directions[d]
                                   else (d, normalize_value(cur[pd], False)))
                            break
                    else:
                        append(duplicate)
                prev_end = ends[j]
                extend(ovcs[h + 1 : prev_end])
                extend_rows(rows[h:prev_end])
        else:
            for j in order:
                h = heads[j]
                e = ends[j]
                if prev_end == h and ovcs[h][0] >= run_boundary:
                    offset, value = ovcs[h]
                    append((offset - x, value))
                else:
                    prev_row = rows[prev_end - 1]
                    cur = rows[h]
                    for d, pd in varying:
                        if prev_row[pd] != cur[pd]:
                            append((d, cur[pd]) if directions[d]
                                   else (d, normalize_value(cur[pd], False)))
                            break
                    else:
                        append(duplicate)
                if e - h > 1:
                    if dropped:
                        extend([duplicate] * (e - h - 1))
                    elif positional:
                        extend(ovcs[h + 1 : e])
                    else:
                        extend([
                            code if code[0] < tail_boundary else duplicate
                            for code in ovcs[h + 1 : e]
                        ])
                extend_rows(rows[h:e])
                if out_perm is not None:
                    out_perm.extend(range(h, e))
                prev_end = e
        value = rows[heads[order[0]]][positions[d0]]
        out_ovcs[first] = (d0, normalize_value(value, directions[d0]))
