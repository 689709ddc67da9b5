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

Key values are read through ``keysrc``: the projected normalized key
tuples, or — all keys ascending — the source rows themselves, indexed
by ``pd = colpos[d]`` (``pd == d`` for key tuples, ``pd ==
positions[d]`` for rows), which skips the per-row key-tuple projection.
Every code value is read off its own row: equal values of two rows may
differ in type (``1``, ``1.0``, ``True``).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Sequence

from ..core.analysis import ModificationPlan
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
    keysrc: Sequence[tuple],
    packed: Sequence[int],
    codes: Sequence[tuple],
    colpos: Sequence[int],
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
    differ in, its index ``pd`` into a ``keysrc`` entry and, for a
    column with a code book, the shared code ``book[cells[i]]`` of row
    ``i``.  Mirrors
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
        out_ovcs.append((d, keysrc[first][colpos[d]]))
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
            append((d, keysrc[i][pd]) if book is None else book[cells[i]])
            prev = pk


def fast_merge_runs(
    rows: Sequence[tuple],
    ovcs: Sequence[tuple],
    keysrc: Sequence[tuple],
    packed: Sequence[int],
    varying: Sequence[tuple],
    colpos: Sequence[int],
    lo: int,
    hi: int,
    plan: ModificationPlan,
    out_rows: list[tuple],
    out_ovcs: list[tuple],
    heads: Sequence[int],
    respect_prefix: bool = True,
    out_perm: list[int] | None = None,
) -> None:
    """Merge the pre-existing runs of rows ``[lo, hi)`` into the output
    (and their indices to ``out_perm``, see :func:`fast_sort_segment`).

    ``packed`` holds each row's restricted key — output key columns
    ``[head_offset, |P|+|M|)``; ``varying`` pairs each output key column
    that can differ with its index into a ``keysrc`` entry; ``heads``
    are the ascending positions in ``[lo, hi)`` of the rows whose old
    offset is below ``|P|+|X|+|M|``.  Mirrors
    :func:`repro.core.merge_runs.merge_preexisting_runs`.
    """
    if hi <= lo:
        return
    if not heads or heads[0] != lo:
        # The segment's first row leads a chunk whatever its code says.
        heads = [lo, *heads]
    # The segment's first output row differs from the preceding
    # segment where its first input row does.
    d0 = ovcs[lo][0] if respect_prefix and plan.prefix_len > 0 else 0
    with TRACER.span(
        "fastpath.merge_segment", rows=hi - lo, heads=len(heads)
    ) if TRACER.enabled else _NO_SPAN:
        _merge_chunks(
            rows, ovcs, keysrc, packed, varying, colpos, d0, lo, hi, plan,
            out_rows, out_ovcs, heads, out_perm,
        )


def _merge_chunks(
    rows, ovcs, keysrc, packed, varying, colpos, d0, lo, hi, plan,
    out_rows, out_ovcs, heads, out_perm,
) -> None:
    """Sort and code the heads; move each head's followers as a slice.

    The rows between two heads equal their head through the prefix,
    infix and merge keys, so a stable sort keeps them behind it in
    input order: chunk ``[h, e)`` moves whole, and inside it every
    row's output predecessor is its input predecessor — the bypass
    mapping of :func:`repro.core.adjust.map_bypass_ovc` applies to the
    slice ``ovcs[h+1:e]`` without looking at a row.
    """
    x = plan.infix_len
    duplicate = (plan.output_arity, 0)
    dropped = plan.infix_dropped
    run_boundary = plan.prefix_len + x
    tail_boundary = run_boundary + plan.merge_len + plan.tail_len
    # With no input key column beyond the tail, old tail codes (and the
    # old duplicate code) are the new ones: the same tuples move over.
    positional = not dropped and plan.input_arity == tail_boundary

    ends = [*heads[1:], hi]
    order = sorted(range(len(heads)), key=gather(packed, heads).__getitem__)
    append = out_ovcs.append
    extend = out_ovcs.extend
    prev_end = -1
    for j in order:
        h = heads[j]
        e = ends[j]
        if prev_end < 0:
            append((d0, keysrc[h][colpos[d0]]))
        elif prev_end == h and ovcs[h][0] >= run_boundary:
            # Merge row behind its own run predecessor: the infix left
            # its place before the merge keys; offset drops by |X|.
            offset, value = ovcs[h]
            append((offset - x, value))
        else:
            # Cross-run adjacency: the one place column values meet.
            prev_keys = keysrc[prev_end - 1]
            keys = keysrc[h]
            for d, pd in varying:
                if prev_keys[pd] != keys[pd]:
                    append((d, keys[pd]))
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
        out_rows.extend(rows[h:e])
        if out_perm is not None:
            out_perm.extend(range(h, e))
        prev_end = e
