"""Row classification from old offset-value codes (Figure 6).

Within one segment, the paper classifies each input row purely by its
old code's offset — no column value is ever inspected:

* ``offset < |P|`` — **first row in segment** (only the segment's
  first row qualifies);
* ``|P| <= offset < |P|+|X|`` — **first row in run** (a new distinct
  infix value starts a pre-existing run);
* ``|P|+|X| <= offset < |P|+|X|+|M|`` — **other row**: already in
  merge order behind its run predecessor;
* ``offset >= |P|+|X|+|M|`` — **duplicate/tail row**: equal to its
  predecessor through the merge keys; it bypasses the merge logic and
  immediately follows its predecessor into the output.

That classification is a fact of the input's codes, not of a request:
``Table._codes()`` keeps it in one :class:`CodeFacts` record per table,
built on first use.  A table never changes, so the record never goes
stale.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Iterator, Sequence


def code_offsets(ovcs: Sequence[tuple]) -> Sequence[int]:
    """Every code's offset, as one flat sequence.

    The one pass over the old codes that classification needs, once per
    code list (:class:`CodeFacts`): counting and locating rows by
    offset (:func:`count_below`, :func:`head_positions`) then run at C
    speed over the result — ``bytes`` whenever the offsets fit (a sort
    key of up to 255 columns), a list otherwise.
    """
    offsets = map(itemgetter(0), ovcs)
    try:
        return bytes(offsets)
    except ValueError:
        return [ovc[0] for ovc in ovcs]


def count_below(offsets: Sequence[int], boundary: int) -> int:
    """How many of ``offsets`` (:func:`code_offsets`) are below
    ``boundary`` — segments for ``|P|``, runs for ``|P|+|X|``."""
    return sum(offsets.count(offset) for offset in range(boundary))


def head_positions(offsets: Sequence[int], boundary: int) -> list[int]:
    """Ascending positions of the rows whose offset is below ``boundary``.

    With ``boundary = |P|+|X|+|M|`` these are the rows Figure 6 sends
    through the merge logic (segment heads, run heads, other rows);
    every position not listed is a duplicate/tail row that follows its
    predecessor.
    """
    if isinstance(offsets, bytes):
        flags = offsets.translate(
            bytes(offset < boundary for offset in range(256))
        )
    else:
        flags = [offset < boundary for offset in offsets]
    return list(compress(range(len(offsets)), flags))


def split_segments(
    ovcs: Sequence[tuple],
    prefix_len: int,
    n_rows: int | None = None,
    candidates: Sequence[int] | None = None,
) -> Iterator[tuple[int, int]]:
    """Yield ``[start, end)`` row ranges of segments, from codes alone.

    A segment starts wherever the old code's offset drops below the
    shared prefix length.  With ``prefix_len == 0`` the whole input is
    one segment.  ``candidates``, when given, are ascending positions
    known to include every segment start (:func:`head_positions` for
    any boundary of at least ``prefix_len``); only they are inspected.
    Without them the starts come from one C-level scan of the offsets.
    """
    n = len(ovcs) if n_rows is None else n_rows
    if n == 0:
        return
    if prefix_len == 0:
        yield (0, n)
        return
    if candidates is None:
        candidates = head_positions(code_offsets(ovcs), prefix_len)
    start = 0
    for i in candidates:
        if i and ovcs[i][0] < prefix_len:
            yield (start, i)
            start = i
    yield (start, n)


class CodeFacts:
    """What one table's codes ``ovcs`` say: offsets, per boundary the
    count below it and the head positions, per prefix length the segment
    bounds.  Each item is built on first use and stored whole (racing
    threads build equal ones).  ``chunks`` belongs to
    :func:`repro.fastpath.execute.bind` (chunk heads per boundary and
    each merge segment's chunks) and ``strategies`` (plan -> ``auto``'s
    strategy) to ``core.modify``.
    """

    __slots__ = (
        "ovcs", "offsets", "_counts", "_heads", "_segments", "chunks",
        "strategies",
    )

    def __init__(self, ovcs: Sequence[tuple]) -> None:
        self.ovcs = ovcs
        self.offsets = code_offsets(ovcs)
        self._counts: dict[int, int] = {}
        self._heads: dict[int, list[int]] = {}
        self._segments: dict[int, list[tuple[int, int]]] = {}
        self.chunks: dict = {}
        self.strategies: dict = {}

    def count(self, boundary: int) -> int:
        """:func:`count_below` ``boundary``."""
        got = self._counts.get(boundary)
        if got is None:
            got = self._counts[boundary] = count_below(self.offsets, boundary)
        return got

    def heads(self, boundary: int) -> list[int]:
        """:func:`head_positions` below ``boundary`` (shared: read only)."""
        got = self._heads.get(boundary)
        if got is None:
            got = self._heads[boundary] = head_positions(self.offsets, boundary)
        return got

    def segments(self, prefix_len: int) -> list[tuple[int, int]]:
        """:func:`split_segments` on ``prefix_len`` (shared: read only)."""
        got = self._segments.get(prefix_len)
        if got is None:
            starts = self.heads(prefix_len) if prefix_len else None
            got = self._segments[prefix_len] = list(
                split_segments(self.ovcs, prefix_len, len(self.ovcs), starts)
            )
        return got
