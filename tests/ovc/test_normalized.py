"""Normalized keys: byte encodings must preserve order exactly, and
byte-level OVCs must behave like their column-level siblings."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Schema, SortSpec
from repro.ovc.normalized import (
    compare_bytes_resume,
    derive_byte_ovcs,
    duplicate_byte_code,
    encode_value,
    form_byte_code,
)
from repro.ovc.stats import ComparisonStats

# Columns are typed: numeric values in one column are homogeneously int
# or float, so same-kind pairs (plus None against anything) are the
# meaningful comparisons.
_kinds = {
    "int": st.integers(-(1 << 62), 1 << 62),
    "float": st.floats(allow_nan=False, allow_infinity=True, width=64),
    "text": st.text(max_size=8),
    "bytes": st.binary(max_size=8),
}
pair_st = st.one_of(
    *(st.tuples(s, s) for s in _kinds.values()),
    st.tuples(st.none(), st.one_of(st.none(), *_kinds.values())),
)


def _rank(v):
    """Total order within the typed test domain: None < value."""
    if v is None:
        return (0,)
    if isinstance(v, bool):
        return (1, int(v))
    if isinstance(v, (int, float)):
        return (1, v)
    if isinstance(v, bytes):
        return (2, v)
    return (2, v.encode("utf-8"))


@given(pair_st)
@settings(max_examples=300)
def test_encoding_preserves_order_ascending(pair):
    a, b = pair
    ea, eb = encode_value(a), encode_value(b)
    ra, rb = _rank(a), _rank(b)
    if ra < rb:
        assert ea < eb
    elif rb < ra:
        assert eb < ea
    else:
        assert ea == eb


@given(pair_st)
@settings(max_examples=200)
def test_encoding_preserves_order_descending(pair):
    a, b = pair
    ea, eb = encode_value(a, ascending=False), encode_value(b, ascending=False)
    ra, rb = _rank(a), _rank(b)
    if ra < rb:
        assert ea > eb
    elif rb < ra:
        assert eb > ea
    else:
        assert ea == eb


def test_embedded_nul_bytes_are_safe():
    # "a\x00b" vs "a" vs "a\x00": escaping must keep prefix order.
    values = ["a", "a\x00", "a\x00b", "ab"]
    encoded = sorted(encode_value(v) for v in values)
    assert encoded == [encode_value(v) for v in sorted(values)]


def test_nan_rejected():
    with pytest.raises(ValueError):
        encode_value(float("nan"))


def test_unsupported_type_rejected():
    with pytest.raises(TypeError):
        encode_value(object())


def test_int_overflow_rejected():
    with pytest.raises(OverflowError):
        encode_value(1 << 63)


def _key_encoder(schema: Schema, spec: SortSpec):
    """A row's whole sort key as one ``memcmp``-ordered byte string."""
    pairs = list(zip(spec.positions(schema), spec.directions))
    return lambda row: b"".join(encode_value(row[p], asc) for p, asc in pairs)


row_st = st.tuples(st.integers(0, 5), st.text(max_size=4), st.integers(-5, 5))


@given(st.lists(row_st, min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_codec_matches_row_order(rows):
    schema = Schema.of("A", "B", "C")
    spec = SortSpec.of("A", "B", "C DESC")
    encode = _key_encoder(schema, spec)
    key = spec.key_for(schema)
    by_rows = sorted(rows, key=key)
    by_bytes = sorted(rows, key=encode)
    assert [key(r) for r in by_rows] == [key(r) for r in by_bytes]


@given(st.lists(st.binary(max_size=6), min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_byte_ovcs_identify_shared_prefixes(keys):
    keys = sorted(encode_value(k) for k in keys)
    codes = derive_byte_ovcs(keys)
    for i in range(1, len(keys)):
        neg_off, value = codes[i]
        offset = -neg_off
        assert keys[i][:offset] == keys[i - 1][:offset]
        if value >= 0:
            assert keys[i][offset] == value


@given(st.binary(max_size=6), st.binary(max_size=6), st.binary(max_size=6))
@settings(max_examples=300)
def test_compare_bytes_resume_agrees_with_memcmp(x, y, z):
    base, a, b = sorted([x, y, z])[0], *sorted([y, z])[:2]
    base = min(base, a, b)
    ca = form_byte_code(a, base)
    cb = form_byte_code(b, base)
    stats = ComparisonStats()
    relation, loser_code = compare_bytes_resume(a, ca, b, cb, stats)
    if a < b:
        assert relation == -1
        assert loser_code == form_byte_code(b, a)
    elif b < a:
        assert relation == 1
        assert loser_code == form_byte_code(a, b)
    else:
        assert relation == 0
        assert loser_code == duplicate_byte_code(len(a))


def test_unsorted_byte_strings_detected():
    with pytest.raises(ValueError):
        derive_byte_ovcs([b"b", b"a"])


def test_merge_on_normalized_keys_end_to_end():
    """Byte-keyed merge of pre-existing runs: sort (A,B) data to (B,A)
    entirely over normalized keys."""
    import random

    rng = random.Random(4)
    rows = sorted(
        (rng.randrange(4), rng.choice("abcdef")) for _ in range(200)
    )
    schema = Schema.of("A", "B")
    out_key = _key_encoder(schema, SortSpec.of("B", "A"))
    # Pre-existing runs by distinct A, each sorted on B — hence on the
    # normalized (B, A) key within the run.
    runs: dict[int, list[tuple]] = {}
    for row in rows:
        runs.setdefault(row[0], []).append(row)
    streams = [sorted(v, key=out_key) for v in runs.values()]
    # Merge byte-wise with codes.
    stats = ComparisonStats()
    heads = [(s, 0) for s in streams]
    out: list[tuple] = []
    import heapq

    heap = [
        (out_key(s[0]), i, 0) for i, s in enumerate(streams)
    ]
    heapq.heapify(heap)
    while heap:
        _key, i, j = heapq.heappop(heap)
        out.append(streams[i][j])
        if j + 1 < len(streams[i]):
            heapq.heappush(
                heap, (out_key(streams[i][j + 1]), i, j + 1)
            )
    assert out == sorted(rows, key=lambda r: (r[1], r[0]))
    # And the byte codes of the merged output are internally consistent.
    codes = derive_byte_ovcs([out_key(r) for r in out], stats)
    assert len(codes) == len(out)
