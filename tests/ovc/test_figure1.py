"""Exact reproduction of the paper's Figure 1: prefix truncation,
run-length encoding, and descending/ascending offset-value codes for a
table sorted on four keys with per-column domain 100."""

from __future__ import annotations

import pytest

from repro.core.classify import code_offsets, head_positions
from repro.ovc.codes import (
    ascending_integer_code,
    descending_integer_code,
)
from repro.ovc.derive import derive_ovcs

ROWS = [
    (5, 4, 7, 1),
    (5, 4, 7, 2),
    (5, 6, 2, 6),
    (5, 6, 2, 6),
    (5, 6, 3, 4),
    (5, 8, 2, 3),
    (5, 8, 4, 7),
]

ARITY = 4
DOMAIN = 100

# (offset, value) per row, exactly as printed in Figure 1.
EXPECTED_OVCS = [
    (0, 5),
    (3, 2),
    (1, 6),
    (4, 0),  # duplicate of the preceding row
    (2, 3),
    (1, 8),
    (2, 4),
]

# Descending codes column of Figure 1 (higher code wins).
EXPECTED_DESC = [95, 398, 194, 500, 297, 192, 296]

# Ascending codes column of Figure 1 (lower code wins).
EXPECTED_ASC = [405, 102, 306, 0, 203, 308, 204]


def test_derived_offsets_and_values_match_figure1():
    assert derive_ovcs(ROWS, (0, 1, 2, 3)) == EXPECTED_OVCS


def test_descending_integer_codes_match_figure1():
    got = [
        descending_integer_code(off, val, ARITY, DOMAIN)
        for off, val in EXPECTED_OVCS
    ]
    assert got == EXPECTED_DESC


def test_ascending_integer_codes_match_figure1():
    got = [
        ascending_integer_code(off, val, ARITY, DOMAIN)
        for off, val in EXPECTED_OVCS
    ]
    assert got == EXPECTED_ASC


def test_descending_codes_order_higher_wins():
    # The winner of a comparison is the row earlier in sort order; with
    # descending codes the higher code wins.  Adjacent rows are coded
    # against the earlier row, so every code must "lose" to the
    # duplicate code and the order of any two codes sharing a base row
    # must invert the row order.
    dup = descending_integer_code(ARITY, 0, ARITY, DOMAIN)
    assert dup == 500
    assert all(code < dup for code in EXPECTED_DESC if code != dup)


def test_ascending_codes_order_lower_wins():
    dup = ascending_integer_code(ARITY, 0, ARITY, DOMAIN)
    assert dup == 0
    assert all(code > dup for code in EXPECTED_ASC if code != dup)


def test_integer_codes_round_trip():
    """Both encodings are injective: distinct ``(offset, value)`` pairs,
    every duplicate code counted once, never share a code."""
    pairs = [(off, val) for off in range(ARITY) for val in range(DOMAIN)]
    pairs.append((ARITY, 0))
    for encode in (ascending_integer_code, descending_integer_code):
        codes = {encode(off, val, ARITY, DOMAIN) for off, val in pairs}
        assert len(codes) == len(pairs)
        assert encode(ARITY + 1, 0, ARITY, DOMAIN) in codes


def test_value_outside_domain_rejected():
    with pytest.raises(ValueError):
        ascending_integer_code(0, DOMAIN, ARITY, DOMAIN)
    with pytest.raises(ValueError):
        descending_integer_code(0, -1, ARITY, DOMAIN)


def test_prefix_truncation_equals_rle_structure():
    """Figure 1's second and third blocks suppress the same values: a
    column value is stored exactly when its prefix changes."""
    ovcs = derive_ovcs(ROWS, (0, 1, 2, 3))
    # Column k's runs start at the rows whose offset is at most k.
    offsets = code_offsets(ovcs)
    starts = [head_positions(offsets, k + 1) for k in range(ARITY)]
    # Column 0 has a single run (all rows share 5).
    assert starts[0] == [0]
    # Column 1 runs start where offset <= 1: rows 0, 2, 5.
    assert starts[1] == [0, 2, 5]
    # Column 2 runs: rows with offset <= 2.
    assert starts[2] == [0, 2, 4, 5, 6]
    # Column 3: everything except the exact duplicate row starts a run.
    assert starts[3] == [0, 1, 2, 4, 5, 6]
    # Stored values across all columns == sum of (arity - offset), the
    # prefix-truncation storage bound.
    stored = sum(len(s) for s in starts)
    assert stored == sum(ARITY - min(off, ARITY) for off, _v in ovcs)
