"""Normalized keys: order-preserving byte encodings and byte-level OVCs.

The paper emphasizes that prefix truncation and offset-value coding
"work with lists of column values, i.e., database rows, lists of
characters, i.e., text strings, and lists of bytes, e.g., normalized
keys".  A *normalized key* encodes a row's entire sort key into one
byte string whose plain ``memcmp`` order equals the key order — the
classic technique that makes comparisons branch-free and lets OVCs
operate at byte granularity, exactly like ``memcmp()`` with starting
offsets.

Encodings (all order-preserving under bytewise comparison):

* integers — 9 bytes: tag ``0x01`` + 64-bit big-endian with the sign
  bit flipped;
* floats — 9 bytes: tag ``0x01`` + IEEE 754 bits, sign-massaged;
  (a column must be homogeneously int or float, as in a typed schema —
  the two numeric encodings do not interleave order-preservingly);
* strings/bytes — tag ``0x02`` + payload with ``0x00 -> 0x00 0xFF``
  escaping + ``0x00 0x00`` terminator (shorter strings sort first);
* ``None`` — single tag byte ``0x00`` (nulls first);
* descending columns — every encoded byte complemented.

Byte-level codes use the arity-free ascending form ``(-offset, byte)``:
lower wins, exact duplicates encode as ``(-length, -1)``.
"""

from __future__ import annotations

import math
import struct
from typing import Sequence

from .stats import ComparisonStats

_NULL_TAG = b"\x00"
_NUMBER_TAG = b"\x01"
_STRING_TAG = b"\x02"


def _encode_int(value: int) -> bytes:
    if not -(1 << 63) <= value < (1 << 63):
        raise OverflowError(f"integer {value} exceeds 64 bits")
    return _NUMBER_TAG + struct.pack(">Q", value + (1 << 63))


def _encode_float(value: float) -> bytes:
    if math.isnan(value):
        raise ValueError("NaN has no place in a sort key")
    if value == 0.0:
        value = 0.0  # collapse -0.0: equal values must encode equally
    bits = struct.unpack(">Q", struct.pack(">d", value))[0]
    if bits & (1 << 63):
        bits ^= (1 << 64) - 1  # negative: flip everything
    else:
        bits ^= 1 << 63  # positive: flip the sign bit
    return _NUMBER_TAG + struct.pack(">Q", bits)


def _encode_text(payload: bytes) -> bytes:
    return _STRING_TAG + payload.replace(b"\x00", b"\x00\xff") + b"\x00\x00"


def encode_value(value, ascending: bool = True) -> bytes:
    """Order-preserving byte encoding of one column value."""
    if value is None:
        encoded = _NULL_TAG
    elif isinstance(value, bool):
        encoded = _encode_int(int(value))
    elif isinstance(value, int):
        encoded = _encode_int(value)
    elif isinstance(value, float):
        encoded = _encode_float(value)
    elif isinstance(value, str):
        encoded = _encode_text(value.encode("utf-8"))
    elif isinstance(value, (bytes, bytearray)):
        encoded = _encode_text(bytes(value))
    else:
        raise TypeError(f"cannot normalize {type(value).__name__} values")
    if ascending:
        return encoded
    return bytes(b ^ 0xFF for b in encoded)


# ----------------------------------------------------------------------
# Byte-level offset-value codes: memcmp with starting offsets.

#: Byte code of an exact duplicate of its base (lowest possible code).
def duplicate_byte_code(length: int) -> tuple:
    return (-length, -1)


def derive_byte_ovcs(
    keys: Sequence[bytes], stats: ComparisonStats | None = None
) -> list[tuple]:
    """Ascending byte codes ``(-offset, byte)`` for sorted byte strings.

    The first key is coded ``(0, first byte)`` (or a duplicate code for
    the empty string); each later key against its predecessor.
    """
    codes: list[tuple] = []
    prev: bytes | None = None
    for key in keys:
        if prev is None:
            codes.append((0, key[0]) if key else duplicate_byte_code(0))
        else:
            codes.append(form_byte_code(key, prev, stats))
            if codes[-1][1] == -2:
                raise ValueError("byte strings not sorted")
        prev = key
    return codes


def form_byte_code(
    key: bytes, base: bytes, stats: ComparisonStats | None = None
) -> tuple:
    """Code of ``key`` relative to ``base`` (must satisfy base <= key).

    Returns the sentinel value part ``-2`` when ``key < base`` so that
    callers validating sortedness can detect it.
    """
    n = min(len(key), len(base))
    offset = 0
    while offset < n and key[offset] == base[offset]:
        offset += 1
    if stats is not None:
        stats.column_comparisons += offset + (1 if offset < n else 0)
    if offset == len(key) and offset == len(base):
        return duplicate_byte_code(offset)
    if offset == len(base):
        return (-offset, key[offset])
    if offset == len(key) or key[offset] < base[offset]:
        return (-offset, -2)
    return (-offset, key[offset])


def make_byte_entry_comparator(stats: ComparisonStats):
    """Tournament-tree comparator over normalized-key entries.

    Entries carry ``keys`` = the byte string and ``code`` = an
    ascending byte code; the contract matches
    :func:`repro.ovc.compare.make_ovc_entry_comparator`, so the same
    :class:`~repro.sorting.tournament.TreeOfLosers` merges byte-keyed
    runs — sorting and merging entire rows as single ``memcmp``-ordered
    byte strings.
    """

    def compare(a, b) -> bool:
        if a.row is None or b.row is None:
            if a.row is None and b.row is None:
                return a.run <= b.run
            return b.row is None
        stats.row_comparisons += 1
        relation, loser_code = compare_bytes_resume(
            a.keys, a.code, b.keys, b.code, stats
        )
        if relation < 0:
            b.code = loser_code
            return True
        if relation > 0:
            a.code = loser_code
            return False
        a_wins = a.run <= b.run
        (b if a_wins else a).code = loser_code
        return a_wins

    return compare


def compare_bytes_resume(
    key_a: bytes,
    code_a: tuple,
    key_b: bytes,
    code_b: tuple,
    stats: ComparisonStats,
) -> tuple[int, tuple]:
    """OVC comparison of two byte strings coded against a common base.

    Returns ``(relation, loser_code)`` with the same contract as
    :func:`repro.ovc.compare.compare_resume` — the loser's code is valid
    relative to the winner; equal strings return relation 0 with a
    duplicate code.  This is ``memcmp()`` with a starting offset.
    """
    stats.ovc_comparisons += 1
    if code_a != code_b:
        if code_a < code_b:
            return -1, code_b
        return 1, code_a
    offset = -code_a[0]
    i = offset + 1 if code_a[1] >= 0 else offset
    n = min(len(key_a), len(key_b))
    while i < n:
        stats.column_comparisons += 1
        ba, bb = key_a[i], key_b[i]
        if ba != bb:
            if ba < bb:
                return -1, (-i, bb)
            return 1, (-i, ba)
        i += 1
    if len(key_a) == len(key_b):
        return 0, duplicate_byte_code(len(key_a))
    if len(key_a) < len(key_b):
        return -1, (-len(key_a), key_b[len(key_a)])
    return 1, (-len(key_b), key_a[len(key_b)])
