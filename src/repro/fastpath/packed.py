"""Column fields and packed sort keys: one machine word per row.

The paper's Figure 1 folds an offset-value code into a single machine
word, which needs a bounded integer domain per column.  The fast
kernels get that domain by *normalizing each key column once*: a
column's **field** is an unsigned ``array`` holding, per row, a small
int that orders exactly like the column's values — ``value - min`` for
a pure-``int`` column, the dense rank among the distinct values
otherwise — together with the bit width of the largest surrogate.
Fields are facts of the rows, not of a request, so for a table's own
rows they live on its row record (:func:`table_fields`) and every
later order over the same table reuses them, whatever its directions
(:func:`directed` complements a descending column's field).

Packing a requested order is then word arithmetic over whole columns
(:func:`pack_fields`): each field, read as one long integer whose
fixed-width cells are the rows' surrogates, is shifted to its place in
the cell and or-ed in — a few C-level passes, no per-row Python.  The
result compares like the normalized key slices (normalized-key sorting
as in Do & Graefe, PAPERS.md), in the fewest bits the observed values
allow, so Timsort usually compares single-digit ints.

A column whose values cannot be ranked (mixed ``int``/``str``,
``None`` beside values) raises ``TypeError`` from :func:`column_field`;
``engine="auto"`` callers fall back to the reference executors.
"""

from __future__ import annotations

import sys
from array import array
from operator import itemgetter
from typing import Sequence

#: A column's surrogates and the bit width of the largest one; a
#: zero-width field is a constant column.
Field = tuple[array, int]


def _word_array(values: Sequence[int], signed: bool = False) -> array:
    """``values`` in the narrowest machine-word ``array`` that holds them.

    Typecodes are tried narrowest first (a cell too small fails at the
    first value beyond it, so a miss costs next to nothing).  Raises
    ``OverflowError`` past 64 bits (or for a negative value when
    unsigned) and ``TypeError`` for anything but ints.
    """
    codes = "bhiq" if signed else "BHIQ"
    for code in codes[:-1]:
        try:
            return array(code, values)
        except OverflowError:
            pass
    return array(codes[-1], values)


def pack_codes(ovcs: Sequence[tuple]) -> tuple[array, array]:
    """Split paper-form codes into flat ``(offsets, values)`` word arrays.

    One fixed-width cell per code instead of one tuple.  The order cache
    packs an entry's *distinct* codes this way, its code book, and keeps
    one id into it per row.  Each array takes the narrowest typecode its
    range allows (:func:`_word_array`).  Raises
    ``TypeError``/``OverflowError`` when a value is not exactly a
    machine-word ``int`` (strings, ``None``, floats, bools, big ints) —
    such codes stay a plain list.
    """
    if not ovcs:
        return array("B"), array("b")
    offsets, values = zip(*ovcs)
    if set(map(type, values)) != {int}:
        raise TypeError("code values are not all plain ints")
    return _word_array(offsets), _word_array(values, signed=True)


def gather(seq, indices: Sequence) -> tuple:
    """``tuple(seq[i] for i in indices)`` (``seq``'s own items) in one
    ``itemgetter`` call, the way the library applies every permutation:
    a ``map`` over ``seq.__getitem__`` pays a method-wrapper call an
    item (a tuple through a 4 096-cell ``array``: 104 µs, here 61 µs).
    ``itemgetter`` of one index returns the bare item, of none raises."""
    if isinstance(indices, array):
        indices = indices.tolist()  # a few percent faster than *array
    if len(indices) > 1:
        return itemgetter(*indices)(seq)
    return tuple([seq[i] for i in indices])


def unpack_codes(offsets, values) -> tuple[tuple, ...]:
    """Inverse of :func:`pack_codes`: the ``(offset, value)`` tuples of
    two parallel sequences (a code book's distinct codes, built once a
    read)."""
    return tuple(zip(offsets, values))


def column_field(values: Sequence) -> Field:
    """One key column's order-preserving surrogates and their bit width.

    ``values`` are the column's values, one per row, whatever its
    direction (see :func:`directed`).  Cells are 32 bits wide unless a
    surrogate needs more.
    """
    if values and type(values[0]) is int:
        try:
            low, high = min(values), max(values)
            if type(low) is int and type(high) is int and high - low < 1 << 64:
                return _field(
                    values if low == 0 else [v - low for v in values],
                    high - low,
                )
            # Sparser than a machine word: rank like any other column.
        except TypeError:
            pass  # not all ints after all: rank them (or fail there)
    rank = {v: r for r, v in enumerate(sorted(set(values)))}
    return _field(gather(rank, values), max(len(rank) - 1, 0))


def _field(surrogates, top: int) -> Field:
    """``surrogates`` (largest: ``top``) in the narrowest cells."""
    return array("I" if top < 1 << 32 else "Q", surrogates), top.bit_length()


def directed(fields, directions: Sequence[bool]) -> list[Field]:
    """Ascending ``fields`` as the fields of a key in ``directions``: a
    descending column's cells ``c`` become ``(2^bits - 1) - c``, the
    complement within the field's width.

    Equal cells stay equal and every other pair swaps order, as in the
    paper's Figure 1 (``domain - value``).  One XOR of the column's
    long-integer image with a repeated mask, no per-row Python.
    """
    order = sys.byteorder
    out = []
    for (cells, bits), asc in zip(fields, directions):
        if bits and not asc:
            mask = array(cells.typecode, [(1 << bits) - 1]) * len(cells)
            word = int.from_bytes(cells, order) ^ int.from_bytes(mask, order)
            cells = array(mask.typecode)
            cells.frombytes(word.to_bytes(len(mask) * mask.itemsize, order))
        out.append((cells, bits))
    return out


def key_fields(
    rows: Sequence[tuple], columns: Sequence[int], memo: dict
) -> list[Field]:
    """The fields of ``rows``' positions ``columns``, in order.

    ``memo`` maps a position to its field; missing ones are built and
    stored whole, so a reader of a shared memo sees a finished field or
    none.
    """
    fields = []
    for pc in columns:
        field = memo.get(pc)
        if field is None:
            field = memo[pc] = column_field(list(map(itemgetter(pc), rows)))
        fields.append(field)
    return fields


def table_fields(table, columns: Sequence[int]) -> list[Field]:
    """:func:`key_fields` of a table's own rows, kept on its row record
    (``Table._facts()``) for as long as the table lives.  Racing
    threads may each build a field; the builds are equal."""
    facts = table._facts()
    memo = facts.fields
    if memo is None:
        memo = facts.fields = {}
    return key_fields(table.rows, columns, memo)


def table_books(table, columns: Sequence[int], min_rows: int) -> list:
    """Per column of a table's own rows: the ``range`` of its values
    when a code book may serve it, else ``None``.

    Only a column whose values are all exactly ``int`` qualifies (``1``,
    ``1.0`` and ``True`` are equal but must never share a code), with
    at most one value per ``min_rows`` rows.  Decided on the column's
    second use and kept on the table's row record (a table ordered once
    pays nothing).  A book's codes carry the table's own values, so
    they may code the table's rows and nothing else.
    """
    facts = table._facts()
    memo = facts.books
    if memo is None:
        memo = facts.books = {}
    spans = []
    for pc in columns:
        span = memo.get(pc, False)
        if span is False and pc in memo:
            values = list(map(itemgetter(pc), table.rows))
            span = None
            if set(map(type, values)) == {int}:
                low, high = min(values), max(values)
                if (high - low + 1) * min_rows <= len(values):
                    span = range(low, high + 1)
        memo[pc] = span
        spans.append(span or None)
    return spans


def pack_fields(fields: Sequence[Field], n: int) -> Sequence[int]:
    """One int per row that orders like the rows' field tuples.

    ``fields`` run from the most to the least significant column and
    each spans ``n`` rows.  Up to 64 key bits pack into 32- or 64-bit
    cells by shifting and or-ing whole columns; wider keys fall back to
    a per-row shift-or over Python's unbounded ints.
    """
    fields = [field for field in fields if field[1]]
    if not fields:
        return [0] * n
    if len(fields) == 1:
        return fields[0][0]
    total = sum(bits for _, bits in fields)
    if total > 64:
        packed = fields[0][0].tolist()
        for cells, bits in fields[1:]:
            packed = [(p << bits) | v for p, v in zip(packed, cells)]
        return packed
    code = "I" if total <= 32 else "Q"
    order = sys.byteorder  # cells round-trip in the host's own layout
    word = 0
    for cells, bits in fields:
        if cells.typecode != code:
            cells = array(code, cells)
        word = (word << bits) | int.from_bytes(cells, order)
    packed = array(code)
    packed.frombytes(word.to_bytes(n * packed.itemsize, order))
    return packed
