"""Tree-of-losers priority queue (tournament tree), Figure 2.

A tournament tree over ``k`` merge inputs keeps, at every internal
node, the *loser* of the match played there; the overall winner sits at
the root.  Replacing the winner with the next row from its input and
replaying matches along the winner's leaf-to-root path costs one
comparison per tree level, so merging ``n`` rows from ``k`` inputs
costs about ``n * log2(k)`` row comparisons — nearly the lower bound.

Offset-value codes integrate naturally: every stored loser's code is
relative to the entry that defeated it most recently, and each
leaf-to-root pass walks exactly the path along which the previous
winner defeated everybody, so all comparisons on the pass share the
winner as their base.  The codes of popped winners are therefore valid
relative to the *previous* popped winner — i.e. they are exactly the
output's offset-value codes, for free.

The tree is agnostic to the comparison rule: callers inject a
comparator (see :func:`repro.ovc.compare.make_ovc_entry_comparator` and
:func:`~repro.ovc.compare.make_plain_entry_comparator`), which also
encapsulates fences, stability, and code maintenance.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from ..ovc.codes import FENCE


class Entry:
    """A competitor in the tournament.

    Attributes
    ----------
    keys:
        The row's sort key, projected into key order and normalized for
        direction — what comparators actually look at.
    code:
        Ascending tuple code relative to the comparator's current base;
        ``None`` means "not yet formed" (fresh rows in run generation).
    row:
        The full row payload; ``None`` marks a fence (exhausted input).
    run:
        Input index — run identifier within the merge and the stable
        tie-break.
    extra:
        Free slot for callers (the order-modification merge parks each
        row's trailing duplicates here).
    """

    __slots__ = ("keys", "code", "row", "run", "extra")

    def __init__(self, keys, code, row, run, extra=None):
        self.keys = keys
        self.code = code
        self.row = row
        self.run = run
        self.extra = extra

    def __repr__(self) -> str:
        if self.row is None:
            return f"Entry(fence, run={self.run})"
        return f"Entry(keys={self.keys!r}, code={self.code!r}, run={self.run})"


def fence(run: int) -> Entry:
    """An entry that loses against every real row."""
    return Entry(None, FENCE, None, run)


class TreeOfLosers:
    """Merge ``k`` entry streams into one, smallest first.

    ``inputs`` is a list of iterables of :class:`Entry`; input ``i``
    must produce entries with ``run == i`` whose codes are relative to
    the entry it produced just before (its run predecessor).  The first
    entry of every input must be coded relative to a common base below
    all inputs (e.g. the run's position in a shared input table, or the
    imaginary lowest row for freshly generated runs).

    ``compare(a, b)`` returns True when ``a`` wins and must store a
    refreshed code into the loser when it learns one.
    """

    def __init__(
        self,
        inputs: list[Iterable[Entry]],
        compare: Callable[[Entry, Entry], bool],
    ) -> None:
        self._compare = compare
        self._inputs: list[Iterator[Entry]] = [iter(s) for s in inputs]
        #: The most recently popped entry — the base against which input
        #: streams form codes for fresh rows (run generation).  Defined
        #: from construction so readers never race the first pop().
        self.last_winner: Entry | None = None
        k = len(inputs)
        width = 1
        while width < k:
            width <<= 1
        self._width = width
        # Slot 0 holds the overall winner; slots 1..width-1 hold losers.
        self._nodes: list[Entry | None] = [None] * max(width, 1)
        if k == 0:
            self._nodes[0] = fence(0)
            return
        for i in range(width):
            candidate = self._fetch(i) if i < k else fence(i)
            node = (width + i) >> 1
            while node >= 1:
                stored = self._nodes[node]
                if stored is None:
                    self._nodes[node] = candidate
                    candidate = None
                    break
                if not self._compare(candidate, stored):
                    # Candidate lost: it stays; the old loser moves up.
                    self._nodes[node] = candidate
                    candidate = stored
                node >>= 1
            if candidate is not None:
                self._nodes[0] = candidate
        if width == 1:
            # Single input: the lone entry is the winner directly.
            if self._nodes[0] is None:
                self._nodes[0] = fence(0)

    def _fetch(self, run: int) -> Entry:
        if run >= len(self._inputs):
            return fence(run)
        nxt = next(self._inputs[run], None)
        return nxt if nxt is not None else fence(run)

    def pop(self) -> Entry | None:
        """Remove and return the smallest entry, or None when drained."""
        winner = self._nodes[0]
        if winner is None or winner.row is None:
            return None
        # Publish the outgoing winner before fetching: input streams that
        # form codes for fresh rows (run generation) need it as the base.
        self.last_winner = winner
        candidate = self._fetch(winner.run)
        node = (self._width + winner.run) >> 1
        while node >= 1:
            stored = self._nodes[node]
            if stored is not None and not self._compare(candidate, stored):
                self._nodes[node] = candidate
                candidate = stored
            node >>= 1
        self._nodes[0] = candidate
        return winner

    def __iter__(self) -> Iterator[Entry]:
        while True:
            entry = self.pop()
            if entry is None:
                return
            yield entry

    @property
    def fan_in(self) -> int:
        return len(self._inputs)

    def render(self) -> str:
        """ASCII rendering of the tree state, level by level — slot 0
        (the winner) first, as in the paper's Figure 2."""

        def cell(entry: Entry | None) -> str:
            if entry is None:
                return "(empty)"
            if entry.row is None:
                return f"fence/run {entry.run}"
            return f"{entry.keys!r}/run {entry.run}"

        lines = [f"winner: {cell(self._nodes[0])}"]
        level, start = 1, 1
        while start < self._width:
            nodes = self._nodes[start : start * 2]
            lines.append(
                f"level {level} losers: "
                + "  ".join(cell(n) for n in nodes)
            )
            start *= 2
            level += 1
        return "\n".join(lines)
