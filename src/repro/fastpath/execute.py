"""Fast-path executor: one strategy's kernel, bound to one input.

:func:`bind` is the packed-code half of
:func:`repro.core.modify.bind_strategy`, the one place an executor is
chosen: same plan, same segment boundaries (from code offsets alone),
same output — rows *and* offset-value codes bit-identical to the
reference engine — but executed by the kernels in
:mod:`repro.fastpath.kernels` over packed keys.

Binding packs the key once: the key columns' fields
(:mod:`repro.fastpath.packed` — remembered on the table when the rows
are a table's own, built for the call otherwise) are shared by every
segment the bound ``run`` is then called on.  Fields and kernels read
key values straight out of the source rows, whatever the directions: a
descending column packs its ascending field's complement, and only the
code values the kernels emit on it are normalized.  A key column the
packer cannot rank raises ``TypeError`` here, before any row moves.

Binding picks the kernel too: the chunked merge for a merge input with
``CHUNK_MIN_ROWS_PER_HEAD`` rows per head, else the segment sort.  That
choice and each merge segment's chunks are facts of the input, kept on
the table (see :func:`bind`): a repeat merge over an unchanged table
pays for its sort and its per-row loop only.

A stable sort's result is a permutation of its input, and the kernels
have it in hand before they gather a row.  A bound ``run`` appends it
to the caller's ``perm`` list (indices into the input rows, parallel to
the output) when given one — the order cache stores that, not a second
row list — and skips it otherwise.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Callable, Sequence

from ..core.analysis import ModificationPlan, Strategy
from ..core.classify import count_below, head_positions
from ..model import Table, normalize_value
from .kernels import (
    BOOK_MIN_ROWS_PER_VALUE, CHUNK_MIN_ROWS_PER_HEAD, fast_merge_runs,
    fast_sort_segment,
)
from .packed import (
    directed, gather, key_fields, pack_fields, table_books, table_fields,
)


def bind(
    rows: Sequence[tuple],
    ovcs: Sequence[tuple] | None,
    positions: Sequence[int],
    directions: Sequence[bool],
    plan: ModificationPlan | None,
    strategy: Strategy,
    table: Table | None = None,
) -> Callable[..., None]:
    """Pack the key once; return ``strategy``'s kernel bound to this
    input as ``run(lo, hi, out_rows, out_ovcs, out_perm=None)``.

    The rows are the key source (``positions[d]`` is key column ``d``'s
    index into a row) in either direction: no per-row key tuple is
    built, and with ``table`` (whose rows they are) the column fields
    are the table's remembered ascending ones, so one table ordered
    both ways ranks each column once.  A merge strategy needs ``table``
    (whose codes ``ovcs`` are): whether the input is chunked
    (:func:`chunk_heads`) and each merge segment's chunks — heads,
    chunk ends and restricted keys — are kept on its code record
    (``Table._codes()``), so a repeat order packs no key and slices no
    head list.  ``rows`` and ``ovcs`` are ``table``'s own whenever
    ``table`` is given.
    """
    k_out = len(positions)
    merging = strategy in (Strategy.MERGE_RUNS, Strategy.COMBINED)
    # Segment-local strategies take the shared prefix as given.
    p = (
        plan.prefix_len
        if strategy in (Strategy.SEGMENT_SORT, Strategy.COMBINED) else 0
    )
    start = min(p, k_out)
    stop = k_out
    if merging:
        # Runs are sorted on the output columns up to the merge-key
        # boundary: that restricted key is all a chunked merge compares
        # (from column 0 without segments).  With too few bypass rows
        # to move as slices, the segment sort on the full output key
        # runs instead: its stable order is the merge's own.
        codes = table._codes()
        boundary = plan.prefix_len + plan.infix_len + plan.merge_len
        heads = codes.chunks.get(boundary, False)
        if heads is False:
            heads = codes.chunks[boundary] = chunk_heads(
                codes.offsets, plan, len(rows)
            )
        merging = heads is not None
        if merging:
            stop = plan.prefix_len + plan.merge_len
    if table is not None:
        fields = table_fields(table, positions[start:stop])
    else:
        fields = key_fields(rows, positions[start:stop], {})

    if not merging:
        packed = pack_fields(directed(fields, directions[start:]), len(rows))
        if isinstance(packed, array):
            # Every word is read twice: list items are ready objects,
            # array items are made per read.
            packed = packed.tolist()
        plain = booked = _code_table(rows, positions, directions, fields)
        if table is not None:
            spans = table_books(table, positions[start:], BOOK_MIN_ROWS_PER_VALUE)
            if any(spans):
                booked = _code_table(
                    rows, positions, directions, fields, spans
                )
        # A segment of more rows than possible packed words is mostly
        # duplicates: a book would not repay checking its rows.
        words = 1 << sum(bits for _, bits in fields)

        def run(lo, hi, out_rows, out_ovcs, out_perm=None):
            codes = booked if words >= hi - lo else plain
            fast_sort_segment(
                rows, ovcs, packed, codes, positions, directions, lo, hi, p,
                k_out, out_rows, out_ovcs, out_perm,
            )

        return run

    # The columns where two rows of this input can differ: a packed
    # column unless constant (zero-width field), any column behind.
    varying = [
        (d, positions[d])
        for d in range(start, k_out)
        if d >= stop or fields[d - start][1]
    ]
    respect_prefix = strategy is Strategy.COMBINED
    # Each segment's chunks, by segment start: kept with the restricted
    # key's packed words on the table's code record.
    key = (tuple(positions[start:stop]), tuple(directions[start:stop]),
           boundary, p)
    segments = codes.chunks.setdefault(key, {})
    packed = None  # packed only if some segment's chunks are not kept

    def run(lo, hi, out_rows, out_ovcs, out_perm=None):
        nonlocal packed
        chunks = segments.get(lo)
        if chunks is None or chunks[1][-1] != hi:
            if packed is None:
                packed = pack_fields(
                    directed(fields, directions[start:stop]), len(rows)
                )
            seg_heads = heads[bisect_left(heads, lo) : bisect_left(heads, hi)]
            if not seg_heads or seg_heads[0] != lo:
                # The segment's first row leads a chunk whatever its
                # code says.
                seg_heads = [lo, *seg_heads]
            chunks = segments[lo] = (
                seg_heads, [*seg_heads[1:], hi], gather(packed, seg_heads)
            )
        fast_merge_runs(
            rows, ovcs, chunks, varying, positions, directions, lo, hi, plan,
            out_rows, out_ovcs, respect_prefix, out_perm,
        )

    return run


def chunk_heads(offsets, plan: ModificationPlan, n: int) -> list[int] | None:
    """The heads a merge input of ``n`` rows with code ``offsets`` is
    chunked at, or ``None`` (counted, not listed) when it has fewer than
    ``CHUNK_MIN_ROWS_PER_HEAD`` rows per head and is sorted row-wise."""
    boundary = plan.prefix_len + plan.infix_len + plan.merge_len
    if count_below(offsets, boundary) * CHUNK_MIN_ROWS_PER_HEAD > n:
        return None
    return head_positions(offsets, boundary)


def _code_table(rows, positions, directions, fields, spans=None) -> list:
    """XOR bit length -> ``(d, pd, cells, book)`` for the last key
    columns, whose ascending fields are ``fields`` (most significant
    first; a constant column owns no bit).  A column with a value span
    (:func:`~repro.fastpath.packed.table_books`) codes from a book of
    shared tuples, indexed by its cells; any other descending column
    from a :class:`_Descending` reader, indexed by its rows."""
    codes: list = [None]  # bit length 0: equal words, never looked up
    start = len(positions) - len(fields)
    for d in reversed(range(start, len(positions))):
        cells, bits = fields[d - start]
        span = None if spans is None else spans[d - start]
        if span is not None:
            book = [(d, v if directions[d] else -v) for v in span]
        elif directions[d]:
            book = None
        else:
            cells, book = rows, _Descending(d, positions[d])
        codes.extend([(d, positions[d], cells, book)] * bits)
    return codes


class _Descending:
    """A descending column ``d``'s codes, indexed by row: each read off
    the row itself when the kernel emits it, normalized as
    :func:`~repro.ovc.derive.codes_from_offsets` does (``1``, ``1.0``
    and ``True`` keep their types; a ``True`` is ``-1``)."""

    __slots__ = ("d", "pd")

    def __init__(self, d, pd):
        self.d, self.pd = d, pd

    def __getitem__(self, row):
        return self.d, normalize_value(row[self.pd], False)


def fast_sort(
    rows: Sequence[tuple],
    positions: Sequence[int],
    directions: Sequence[bool],
) -> tuple[list[tuple], list[tuple]]:
    """Stable full sort with fresh output codes — the fast twin of
    :func:`repro.sorting.internal.tournament_sort` with ``use_ovc``."""
    out_rows: list[tuple] = []
    out_ovcs: list[tuple] = []
    if len(rows):
        run = bind(rows, None, positions, directions, None, Strategy.FULL_SORT)
        run(0, len(rows), out_rows, out_ovcs)
    return out_rows, out_ovcs
