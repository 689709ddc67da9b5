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
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Iterator, Sequence


def code_offsets(ovcs: Sequence[tuple]) -> Sequence[int]:
    """Every code's offset, as one flat sequence.

    The one pass over the old codes that classification needs: counting
    and locating rows by offset (:func:`count_below`,
    :func:`head_positions`) then run at C speed over the result —
    ``bytes`` whenever the offsets fit (a sort key of up to 255
    columns), a list otherwise.
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
