"""Unit tests for column fields and the packed-key packer."""

from __future__ import annotations

from dataclasses import replace

import random
from array import array

import pytest

from repro.fastpath.packed import (
    column_field,
    directed,
    gather,
    key_fields,
    pack_fields,
    table_fields,
)
from repro.model import Schema, Table


def _keys(seed=0, n=200, shape=(5, 3, 40)):
    rng = random.Random(seed)
    return [tuple(rng.randrange(d) for d in shape) for _ in range(n)]


def pack_range(keys, start, stop):
    """Key columns ``[start, stop)`` of ``keys``, one packed int per row."""
    return pack_fields(key_fields(keys, range(start, stop), {}), len(keys))


def _assert_orders_like(keys, packed):
    """Stable order by packed word == stable order by key tuple."""
    positions = range(len(keys))
    assert sorted(positions, key=packed.__getitem__) == sorted(
        positions, key=keys.__getitem__
    )


def test_pack_range_orders_like_key_slices():
    keys = _keys(2, shape=(4, 1, 9, 2))  # includes a constant column
    for start, stop in [(0, 4), (1, 3), (2, 4), (0, 2), (1, 2)]:
        packed = pack_range(keys, start, stop)
        _assert_orders_like([k[start:stop] for k in keys], packed)


def test_pack_range_handles_strings_and_negatives():
    keys = [("b", -5), ("a", 10), ("b", 0), ("a", -5), ("c", 3)]
    packed = pack_range(keys, 0, 2)
    by_packed = sorted(range(len(keys)), key=packed.__getitem__)
    assert [keys[i] for i in by_packed] == sorted(keys)


def test_fields_are_order_preserving_and_tight():
    ints, bits = column_field([7, -3, 7, 0, 12])
    assert list(ints) == [10, 0, 10, 3, 15] and bits == 4  # v - min
    ranks, bits = column_field(["pear", "fig", "pear", "apple"])
    assert list(ranks) == [2, 1, 2, 0] and bits == 2  # dense ranks
    flags, bits = column_field([True, False, True])
    assert list(flags) == [1, 0, 1] and bits == 1
    # bool is an int: a mixed column ranks by value, True beside 1.
    mixed, _ = column_field([2, True, 0, 1])
    assert list(mixed) == [2, 1, 0, 1]


def test_unrankable_columns_raise_type_error():
    with pytest.raises(TypeError):
        column_field([1, "a", 2])
    with pytest.raises(TypeError):
        column_field([None, 3])
    with pytest.raises(TypeError):
        pack_range([(1, "x"), ("y", 2)], 0, 2)


def test_varying_columns_and_varies():
    """A zero-width field is a constant column; it adds nothing to the
    packed word."""
    keys = [(1, 7, x, "s") for x in range(5)]
    fields = key_fields(keys, range(4), {})
    assert [bits for _, bits in fields] == [0, 0, 3, 0]
    assert list(pack_fields(fields, 5)) == list(range(5))
    assert pack_fields(fields[:2], 5) == [0] * 5


def test_positions_indirection_reads_rows():
    """Fields are read out of rows by position, in the order asked."""
    rows = [(i % 3, "pad", 10 - i) for i in range(10)]
    direct = pack_range([(r[2], r[0]) for r in rows], 0, 2)
    indirect = pack_fields(key_fields(rows, [2, 0], {}), len(rows))
    assert list(indirect) == list(direct)


def test_empty_universe():
    assert list(pack_range([], 0, 3)) == []
    assert [bits for _, bits in key_fields([], range(3), {})] == [0, 0, 0]


@pytest.mark.parametrize("shape", [(2, 2), (1, 50), (7, 7)])
def test_pack_range_full_width_matches_total_order(shape):
    keys = _keys(3, n=120, shape=shape)
    packed = pack_range(keys, 0, len(shape))
    assert sorted(keys) == [
        keys[i] for i in sorted(range(len(keys)), key=packed.__getitem__)
    ]


@pytest.mark.parametrize(
    "domains",
    [
        (1 << 20, 1 << 20),           # 40 bits: 64-bit cells
        (1 << 33, 5),                 # one field beyond 32 bits
        (1 << 40, 1 << 40),           # 80 bits: per-row fallback
        (1 << 70, 3),                 # int span beyond a machine word
    ],
    ids=["q-cells", "wide-field", "beyond-64-bits", "sparse-ints"],
)
def test_wide_keys_order_like_tuples(domains):
    rng = random.Random(5)
    keys = [tuple(rng.randrange(d) - d // 2 for d in domains) for _ in range(300)]
    keys += keys[:40]  # ties must stay ties
    _assert_orders_like(keys, pack_range(keys, 0, len(domains)))


@pytest.mark.parametrize(
    "domains, directions",
    [
        ((40,), (False,)),                     # one field
        ((5, 3, 40), (True, False, True)),     # 32-bit cells
        ((1 << 20, 1 << 20), (False, True)),   # 64-bit cells
        ((1 << 40, 1 << 40), (True, False)),   # per-row fallback
        ((1, 9, 1), (False, False, False)),    # beside zero-width fields
    ],
    ids=["one-field", "32-bits", "64-bits", "beyond-64-bits", "zero-width"],
)
def test_a_complemented_field_packs_in_reverse(domains, directions):
    """A descending column packs its ascending field complemented within
    its width: the packed words order like the key with that column
    reversed, ties kept as ties, and the ascending field is untouched."""
    rng = random.Random(9)
    keys = [tuple(rng.randrange(d) for d in domains) for _ in range(300)]
    keys += keys[:40]
    fields = key_fields(keys, range(len(domains)), {})
    before = [(list(cells), bits) for cells, bits in fields]
    flipped = directed(fields, directions)
    assert [(list(cells), bits) for cells, bits in fields] == before
    for (cells, bits), (up, up_bits), asc in zip(flipped, fields, directions):
        assert bits == up_bits
        top = (1 << bits) - 1
        want = list(up) if asc else [top - c for c in up]
        assert list(cells) == want
    _assert_orders_like(
        [tuple(v if a else -v for v, a in zip(k, directions)) for k in keys],
        pack_fields(flipped, len(keys)),
    )


def test_packed_words_use_the_fewest_bits():
    """Tight cells keep ordinary keys single-digit ints for Timsort."""
    keys = _keys(4, n=500, shape=(8, 8, 16, 256))
    assert max(pack_range(keys, 0, 4)) < 1 << 18


def test_table_fields_are_remembered_until_the_rows_change():
    """Fields live as long as their table; changed rows are a new table
    (an in-place change raises) with fields of its own."""
    table = Table(Schema.of("A", "B"), [(3, "x"), (1, "y"), (2, "x")])
    assert table._facts().fields is None  # nothing allocated before use
    first = table_fields(table, [1, 0])
    assert table_fields(table, [0])[0] is first[1]
    assert sorted(table._facts().fields) == [0, 1]
    with pytest.raises(TypeError):
        table.rows[0] = (0, "z")
    edited = replace(table, rows=[(0, "z"), *table.rows[1:]])
    again = table_fields(edited, [0, 1])
    assert list(again[0][0]) == [0, 1, 2] and list(again[1][0]) == [2, 1, 0]
    assert table_fields(table, [0])[0] is first[1]


@pytest.mark.parametrize("indices", [[], [2], [3, 0], [4, 1, 1, 0, 2, 3]])
@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
@pytest.mark.parametrize("kind", ["tuple", "list", "array", "dict"])
def test_gather_returns_the_sources_own_items(kind, as_array, indices):
    """``gather`` is ``tuple(seq[i] for i in indices)`` for any index
    count: no scalar for one index, no error for none."""
    items = [(i, "row") for i in range(5)]
    if kind == "tuple":
        seq = tuple(items)
    elif kind == "list":
        seq = items
    elif kind == "array":
        seq = array("q", [10**12 + i for i in range(5)])
    else:
        seq = dict(enumerate(items))
    idx = array("B", indices) if as_array else list(indices)
    got = gather(seq, idx)
    want = tuple(seq[i] for i in indices)
    assert type(got) is tuple and got == want
    assert got is not seq and got is not idx
    if kind != "array":  # an array stores values, not objects
        assert all(g is seq[i] for g, i in zip(got, indices))


def test_gather_raises_what_indexing_raises():
    with pytest.raises(IndexError):
        gather((1, 2), [0, 5])
    with pytest.raises(KeyError):
        gather({1: "a"}, [1, 2])
