"""Merging runs of normalized keys with byte-level offset-value codes:
the tournament tree is agnostic to whether its keys are column tuples
or byte strings."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Schema, SortSpec
from repro.ovc.normalized import (
    derive_byte_ovcs,
    encode_value,
    make_byte_entry_comparator,
)
from repro.ovc.stats import ComparisonStats
from repro.sorting.tournament import Entry, TreeOfLosers


def _byte_run(keys: list[bytes], run: int) -> list[Entry]:
    codes = derive_byte_ovcs(keys)
    return [Entry(k, c, k, run) for k, c in zip(keys, codes)]


@given(
    st.lists(
        st.lists(st.binary(max_size=5), max_size=15).map(sorted),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=80, deadline=None)
def test_byte_merge_is_correct(runs):
    stats = ComparisonStats()
    tree = TreeOfLosers(
        [iter(_byte_run(r, i)) for i, r in enumerate(runs)],
        make_byte_entry_comparator(stats),
    )
    got = [e.row for e in tree]
    assert got == sorted(b for r in runs for b in r)


@given(
    st.lists(
        st.lists(st.binary(min_size=1, max_size=5), max_size=15).map(sorted),
        min_size=2,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_byte_merge_output_codes_consistent(runs):
    """Popped codes form a valid code chain for the merged output."""
    stats = ComparisonStats()
    tree = TreeOfLosers(
        [iter(_byte_run(r, i)) for i, r in enumerate(runs)],
        make_byte_entry_comparator(stats),
    )
    out = [(e.row, e.code) for e in tree]
    keys = [k for k, _c in out]
    fresh = derive_byte_ovcs(keys)
    # All but the very first code must match fresh derivation (the
    # first is relative to its run's base, not the imaginary lowest).
    assert [c for _k, c in out][1:] == fresh[1:]


def test_row_sorting_through_normalized_keys():
    """Sort whole rows as byte strings: encode, merge 1-row runs,
    decode positions — a full normalized-key sort."""
    schema = Schema.of("name", "score")
    spec = SortSpec.of("score DESC", "name")
    pairs = list(zip(spec.positions(schema), spec.directions))
    rows = [("ada", 90), ("bob", 95), ("cy", 90), ("dee", 99)]
    keys = [b"".join(encode_value(r[p], asc) for p, asc in pairs) for r in rows]
    entries = [
        [Entry(k, (0, k[0]), r, i)] for i, (k, r) in enumerate(zip(keys, rows))
    ]
    stats = ComparisonStats()
    tree = TreeOfLosers(
        [iter(e) for e in entries], make_byte_entry_comparator(stats)
    )
    got = [e.row for e in tree]
    assert got == [("dee", 99), ("bob", 95), ("ada", 90), ("cy", 90)]


def test_byte_codes_decide_most_comparisons():
    """Long shared prefixes: codes decide; bytes beyond the offset are
    never re-read."""
    prefix = b"customer/0000/"
    runs = [
        sorted(prefix + bytes([i, j]) for j in range(20))
        for i in range(4)
    ]
    stats = ComparisonStats()
    tree = TreeOfLosers(
        [iter(_byte_run(r, i)) for i, r in enumerate(runs)],
        make_byte_entry_comparator(stats),
    )
    got = [e.row for e in tree]
    assert got == sorted(b for r in runs for b in r)
    # Without codes every comparison would re-scan the 14-byte prefix:
    # >= 14 * row_comparisons byte touches.  With codes only genuine
    # resumes touch bytes.
    assert stats.column_comparisons < 14 * stats.row_comparisons / 4
