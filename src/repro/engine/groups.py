"""One group cursor for every operator past ``Sort``.

On a stream sorted on a key, offset-value codes do two jobs without
touching a column value (Graefe & Do, "Offset-value coding in database
query processing"):

* *boundaries:* a row starts a new group exactly where its code's
  offset is below the key arity.  A row without a code is compared with
  its group head's key instead, and that comparison is counted;
* *the max-theorem:* when rows are dropped, the code of the next kept
  row relative to the last kept one is the maximum of the ascending
  codes along the dropped stretch, its own included.

:func:`groups` finds the boundaries, :func:`aligned` walks two group
streams side by side with one key comparison per pair, and
:class:`Fold` applies the max-theorem.  ``GroupBy``, ``Distinct``,
``Pivot``, ``MergeJoin``, the set operations, ``Filter`` and in-sort
aggregation (:mod:`repro.sorting.insort`) all run on these three.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from ..ovc.codes import code_to_ovc, max_merge, ovc_to_code
from ..ovc.compare import compare_plain
from ..ovc.stats import ComparisonStats


def groups(
    source: Iterable[tuple[tuple, tuple | None]],
    project: Callable[[tuple], tuple],
    arity: int,
    stats: ComparisonStats,
) -> Iterator[tuple]:
    """Yield ``(key, head, code, rest)`` per group of equal keys.

    ``source`` yields ``(row, ovc)`` pairs sorted on the ``arity``
    columns ``project`` extracts.  ``key`` is the head row's projected
    key, ``code`` its ascending code under the key (``None`` when the
    head has no code) and ``rest`` an iterator over the group's other
    rows, valid until the next group is requested (as in
    :func:`itertools.groupby`, which skips what is left of it).  Keys are
    projected only for heads and uncoded rows.
    """
    head = None  # the current group head's key
    number = 0  # the current group's number; 0 before the first row

    def group_number(pair: tuple) -> int:
        nonlocal head, number
        row, ovc = pair
        if number and ovc is not None and ovc[0] >= arity:
            return number
        key = project(row)
        if number and ovc is None and compare_plain(head, key, stats) == 0:
            return number
        head = key
        number += 1
        return number

    for _number, rest in groupby(source, group_number):
        key = head
        row, ovc = next(rest)
        code = None if ovc is None else ovc_to_code(ovc, arity)
        yield key, row, code, map(itemgetter(0), rest)


def aligned(
    left: Iterator[tuple], right: Iterator[tuple], stats: ComparisonStats
) -> Iterator[tuple[int, tuple | None, tuple | None]]:
    """Walk two group streams on one key order.

    Yields ``(relation, left group, right group)``: relation ``-1`` for
    a key only the left side has, ``1`` for one only the right side has,
    ``0`` for a key on both.  Each pair of groups visited costs one key
    comparison; once one side runs out, the other's groups follow with
    ``None`` beside them.
    """
    a, b = next(left, None), next(right, None)
    while a is not None and b is not None:
        relation = compare_plain(a[0], b[0], stats)
        yield relation, a, b
        if relation <= 0:
            a = next(left, None)
        if relation >= 0:
            b = next(right, None)
    while a is not None:
        yield -1, a, None
        a = next(left, None)
    while b is not None:
        yield 1, None, b
        b = next(right, None)


class Fold:
    """The max-theorem over a coded stream some of whose rows are dropped.

    Feed every row (or group head) in order, as ascending codes under
    ``arity`` columns: :meth:`skip` a dropped one, :meth:`keep` a kept
    one, which returns the kept row's paper-form code relative to the
    last kept row.  Once a code is missing (``None``) the stream stays
    uncoded and :meth:`keep` returns ``None``.
    """

    __slots__ = ("_arity", "_pending", "_coded")

    def __init__(self, arity: int) -> None:
        self._arity = arity
        self._pending: tuple | None = None
        self._coded = True

    def skip(self, code: tuple | None) -> None:
        if code is None:
            self._coded = False
        elif self._coded:
            pending = self._pending
            self._pending = code if pending is None else max_merge(pending, code)

    def keep(self, code: tuple | None) -> tuple | None:
        self.skip(code)
        if not self._coded:
            return None
        folded, self._pending = self._pending, None
        return code_to_ovc(folded, self._arity)
