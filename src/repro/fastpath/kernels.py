"""Batch kernels: segment sort and pre-existing-run merge, uncounted.

Both kernels operate on parallel lists — rows, paper-form input codes,
key values, packed key ints — with no ``Entry`` objects and no
per-comparison closures:

* :func:`fast_sort_segment` sorts one segment with ``sorted`` over the
  packed post-prefix key (stable, single-int comparisons).
* :func:`fast_merge_runs` stable-sorts the segment on the packed
  *restricted* key (output columns up to the merge-key boundary).
  That reproduces the reference tournament's order bit for bit: the
  reference resolves restricted ties by run index, runs appear in input
  order, and a stable sort preserves input order among equal keys — so
  (restricted key, run, position-in-run) is exactly what ``sorted``
  yields.  Better, CPython's Timsort *detects* the pre-existing runs as
  its natural runs and merges them with galloping in C: the paper's
  "merge pre-existing runs instead of sorting from scratch" maps onto
  the one primitive the interpreter executes at full speed.  (A
  ``heapq``-based k-way merge over the same packed codes gives the same
  bits; Timsort's galloping beats the heap's per-row tuple churn.)

Key values are read through ``keysrc`` + ``varying``: ``keysrc`` is
either the projected normalized key tuples or — in the all-ascending
case — the source rows themselves, and ``varying`` pairs each
non-constant key column ``d`` with its index ``pd`` into a ``keysrc``
entry (``pd == d`` for key tuples, ``pd == positions[d]`` for rows).
Reading rows directly skips the per-row key-tuple projection, the
largest fixed cost of small segments.

Output offset-value codes are reconstructed without the tournament:
rows that follow their own run predecessor reuse the paper's O(1) code
adjustments (offset drops by ``|X|`` for merge rows, positional mapping
for duplicate/tail rows — :mod:`repro.core.adjust`); only cross-run
adjacencies fall back to a resumed scan of the two key tuples, visiting
just the columns that vary at all in this input.  Either way the result
equals a fresh derivation against the output predecessor, which is what
the reference tournament emits (its popped winners' codes are always
relative to the previously popped winner).

Figure 6's duplicate/tail rows "bypass the merge logic and immediately
follow their predecessor", and the merge kernel takes that literally
wherever such rows are at least half of a segment: only the other rows
(*heads*: segment head, run heads, merge rows) are sorted and coded,
and each moves the bypass rows behind it as one slice of rows and one
slice of codes (:func:`_merge_chunks`).
"""

from __future__ import annotations

from typing import Sequence

from ..core.analysis import ModificationPlan
from ..obs import TRACER


def adjacent_ovc(
    prev_keys: tuple, keys: tuple, varying: Sequence[tuple], arity: int
) -> tuple:
    """Paper-form code of ``keys`` against ``prev_keys``.

    ``varying`` pairs each key column where any two rows of this call
    can differ with its index into the key entries; constant columns
    are skipped.
    """
    for d, pd in varying:
        if prev_keys[pd] != keys[pd]:
            return (d, keys[pd])
    return (arity, 0)


def fast_sort_segment(
    rows: Sequence[tuple],
    ovcs: Sequence[tuple] | None,
    keysrc: Sequence[tuple],
    packed: Sequence[int],
    varying: Sequence[tuple],
    pos0: int,
    lo: int,
    hi: int,
    prefix_len: int,
    output_arity: int,
    out_rows: list[tuple],
    out_ovcs: list[tuple],
    out_perm: list[int] | None = None,
) -> None:
    """Sort rows ``[lo, hi)`` (one segment) on the desired order.

    ``packed`` holds each row's post-prefix output key folded into one
    int; ``keysrc``/``varying`` give access to the normalized key
    values (consulted only to reconstruct codes; ``pos0`` indexes key
    column 0).  Mirrors :func:`repro.core.segmented.sort_segment` with
    ``use_ovc=True``.

    A stable sort's output *is* a permutation of its input — the
    ``order`` list the rows are gathered through.  With ``out_perm``
    the kernel also appends it (indices into ``rows``, parallel to
    ``out_rows``): what the order cache keeps of a result in place of a
    second row list.  Callers that will not install pass ``None`` and
    pay nothing.
    """
    if hi <= lo:
        return
    if TRACER.enabled:
        # Per-segment spans only when someone is watching: the fast
        # path's point is speed, so the disabled cost must stay at this
        # one attribute check.
        with TRACER.span("fastpath.sort_segment", rows=hi - lo):
            _fast_sort_segment(
                rows, ovcs, keysrc, packed, varying, pos0, lo, hi,
                prefix_len, output_arity, out_rows, out_ovcs, out_perm,
            )
        return
    _fast_sort_segment(
        rows, ovcs, keysrc, packed, varying, pos0, lo, hi,
        prefix_len, output_arity, out_rows, out_ovcs, out_perm,
    )


def _fast_sort_segment(
    rows, ovcs, keysrc, packed, varying, pos0, lo, hi,
    prefix_len, output_arity, out_rows, out_ovcs, out_perm=None,
) -> None:
    p = prefix_len
    k_out = output_arity

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
    out_rows.extend(map(rows.__getitem__, order))
    if out_perm is not None:
        out_perm.extend(order)

    first = order[0]
    # The segment's first output row inherits the saved segment-head
    # code; with no prefix it is coded against the imaginary lowest row.
    out_ovcs.append(ovcs[lo] if p > 0 else (0, keysrc[first][pos0]))
    append = out_ovcs.append
    duplicate = (k_out, 0)
    prev_packed = packed[first]
    prev_keys = keysrc[first]
    for i in order[1:]:
        pk = packed[i]
        if pk == prev_packed:
            # Equal packed suffix + shared segment prefix = duplicate.
            append(duplicate)
            continue
        keys = keysrc[i]
        for d, pd in varying:
            if prev_keys[pd] != keys[pd]:
                append((d, keys[pd]))
                break
        else:
            append(duplicate)
        prev_packed = pk
        prev_keys = keys


#: A segment takes the chunk path when it holds at least this many rows
#: per head; below that, slicing per head costs more than the per-row
#: loop it replaces (measured, see docs/ALGORITHMS.md).
CHUNK_MIN_ROWS_PER_HEAD = 2


def fast_merge_runs(
    rows: Sequence[tuple],
    ovcs: Sequence[tuple],
    keysrc: Sequence[tuple],
    packed: Sequence[int],
    varying: Sequence[tuple],
    pos0: int,
    lo: int,
    hi: int,
    plan: ModificationPlan,
    out_rows: list[tuple],
    out_ovcs: list[tuple],
    heads: Sequence[int],
    respect_prefix: bool = True,
    out_perm: list[int] | None = None,
) -> None:
    """Merge the pre-existing runs of rows ``[lo, hi)`` into the output.

    With ``out_perm``, the output rows' indices into ``rows`` are
    appended to it as well (see :func:`fast_sort_segment`).

    ``packed`` holds each row's restricted key — output key columns
    ``[head_offset, |P|+|M|)`` — folded into one int; ``keysrc``/
    ``varying`` give access to the normalized key values of the
    non-constant output key columns at or beyond ``head_offset``
    (``pos0`` indexes key column 0).  Within the restricted region runs
    are sorted streams and run order equals input order, so the stable
    sort on packed keys reproduces the reference tournament's output
    exactly (see module docstring).  Mirrors
    :func:`repro.core.merge_runs.merge_preexisting_runs` with
    ``use_ovc=True``.

    ``heads`` are the ascending positions in ``[lo, hi)`` of the rows
    Figure 6 sends through the merge logic — old offset below
    ``|P|+|X|+|M|``: the segment head, run heads and merge rows.  Every
    other row is a duplicate/tail row that "bypasses the merge logic
    and immediately follows its predecessor".  Where such rows are at
    least half of the segment, only the heads are sorted and coded and
    each moves the rows behind it as one slice (:func:`_merge_chunks`);
    otherwise every row takes the row-at-a-time loop
    (:func:`_merge_rowwise`).  The choice reads nothing but this
    segment's head count.
    """
    if hi <= lo:
        return
    if not heads or heads[0] != lo:
        # The segment's first row leads a chunk whatever its code says.
        heads = [lo, *heads]
    chunked = len(heads) * CHUNK_MIN_ROWS_PER_HEAD <= hi - lo
    kernel = _merge_chunks if chunked else _merge_rowwise
    # out_ovcs stays in lockstep with the emitted rows, so its length
    # marks this segment's first output slot.
    first_out = len(out_ovcs)
    if TRACER.enabled:
        with TRACER.span(
            "fastpath.merge_segment", rows=hi - lo, heads=len(heads),
            chunked=chunked,
        ):
            kernel(rows, ovcs, keysrc, packed, varying, pos0, lo, hi, plan,
                   out_rows, out_ovcs, heads, out_perm)
    else:
        kernel(rows, ovcs, keysrc, packed, varying, pos0, lo, hi, plan,
               out_rows, out_ovcs, heads, out_perm)
    if respect_prefix and plan.prefix_len > 0:
        # The segment's first output row inherits the code saved from
        # the segment's first input row: both describe the same prefix
        # difference against the preceding segment.
        out_ovcs[first_out] = ovcs[lo]


def _merge_rowwise(
    rows, ovcs, keysrc, packed, varying, pos0, lo, hi, plan,
    out_rows, out_ovcs, heads, out_perm,
) -> None:
    """Sort and code every row of the segment, one at a time."""
    x = plan.infix_len
    duplicate = (plan.output_arity, 0)
    dropped = plan.infix_dropped
    run_boundary = plan.prefix_len + x
    dup_boundary = run_boundary + plan.merge_len
    tail_boundary = dup_boundary + plan.tail_len

    order = sorted(range(lo, hi), key=packed.__getitem__)
    out_rows.extend(map(rows.__getitem__, order))
    if out_perm is not None:
        out_perm.extend(order)

    out_ovcs.append((0, keysrc[order[0]][pos0]))
    append = out_ovcs.append
    prev = order[0]
    for i in order[1:]:
        if prev == i - 1 and ovcs[i][0] >= run_boundary:
            # The output predecessor is this row's own run predecessor:
            # the old code adjusts without touching any column value.
            offset, value = ovcs[i]
            if offset < dup_boundary:
                # Merge row: the infix left its place between the
                # prefix and the merge keys; offset drops by |X|.
                append((offset - x, value))
            elif dropped or offset >= tail_boundary:
                append(duplicate)
            else:
                # Tail row: same key position in input and output.
                append((offset, value))
        else:
            prev_keys = keysrc[prev]
            keys = keysrc[i]
            for d, pd in varying:
                if prev_keys[pd] != keys[pd]:
                    append((d, keys[pd]))
                    break
            else:
                append(duplicate)
        prev = i


def _merge_chunks(
    rows, ovcs, keysrc, packed, varying, pos0, lo, hi, plan,
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
    order = sorted(range(len(heads)), key=[packed[h] for h in heads].__getitem__)
    append = out_ovcs.append
    extend = out_ovcs.extend
    prev_end = -1
    for j in order:
        h = heads[j]
        e = ends[j]
        if prev_end < 0:
            append((0, keysrc[h][pos0]))
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
