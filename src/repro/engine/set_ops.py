"""Sort-based set operations with offset-value codes.

Union (all/distinct), intersection, and difference of streams sorted on
the same key ride the merge machinery: the groups of each input come
from its codes (:func:`.groups.groups`), and one key comparison per
group pair aligns the two inputs (:func:`.groups.aligned`) — the "set
operations such as intersection" listed among sort-based algorithms by
the companion EDBT 2023 paper.

Output codes: INTERSECT and EXCEPT emit subsequences of the *left*
input's group heads, so their codes come from max-folding the skipped
left group-head codes (:class:`.groups.Fold`).  UNION interleaves both
inputs, whose code chains do not compose; ``UnionAll`` merges with full
codes via the tournament machinery, while ``UnionDistinct`` emits
uncoded rows (pipe through ``UnionAll`` + ``Distinct`` when codes
matter downstream).

Inputs must share a schema and be sorted on identical orderings.
"""

from __future__ import annotations

from typing import Iterator

from ..sorting.merge import _key_projector, kway_merge
from .groups import Fold, aligned, groups
from .operators import Operator


def _check_inputs(left: Operator, right: Operator) -> None:
    if left.schema != right.schema:
        raise ValueError("set operations need identical schemas")
    if left.ordering is None or left.ordering != right.ordering:
        raise ValueError("set operations need both inputs sorted alike")


class UnionAll(Operator):
    """Merge two sorted streams, keeping duplicates (a 2-way merge)."""

    def __init__(self, left: Operator, right: Operator) -> None:
        _check_inputs(left, right)
        super().__init__(left.schema, left.ordering, left.stats)
        self._left = left
        self._right = right

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        spec = self.ordering
        positions = spec.positions(self.schema)
        runs = []
        for source in (self._left, self._right):
            rows, ovcs, coded = [], [], True
            for row, ovc in source:
                rows.append(row)
                if ovc is None:
                    coded = False
                else:
                    ovcs.append(ovc)
            runs.append((rows, ovcs if coded else None))
        use_ovc = all(ovcs is not None for _rows, ovcs in runs)
        out_rows, out_ovcs = kway_merge(
            runs, positions, self.stats, spec.directions, use_ovc
        )
        if out_ovcs is None:
            for row in out_rows:
                yield row, None
        else:
            yield from zip(out_rows, out_ovcs)

    def _children(self) -> list[Operator]:
        return [self._left, self._right]


class _SetOpBase(Operator):
    def __init__(self, left: Operator, right: Operator) -> None:
        _check_inputs(left, right)
        super().__init__(left.schema, left.ordering, left.stats)
        self._left = left
        self._right = right

    def _aligned_groups(self):
        """``(relation, left group, right group)`` per key, as
        :func:`.groups.aligned` yields them."""
        spec = self.ordering
        project = _key_projector(spec.positions(self.schema), spec.directions)
        return aligned(
            groups(self._left, project, spec.arity, self.stats),
            groups(self._right, project, spec.arity, self.stats),
            self.stats,
        )

    def _children(self) -> list[Operator]:
        return [self._left, self._right]


class _LeftSubsequenceOp(_SetOpBase):
    """Common machinery for ops emitting a subsequence of left keys."""

    def _emit(self, emitted: int) -> Iterator[tuple[tuple, tuple | None]]:
        """Each left group head whose relation is ``emitted``."""
        fold = Fold(self.ordering.arity)
        for relation, left, _right in self._aligned_groups():
            if left is None:
                continue
            if relation == emitted:
                yield left[1], fold.keep(left[2])
            else:
                fold.skip(left[2])


class Intersect(_LeftSubsequenceOp):
    """Distinct keys present in both inputs (INTERSECT)."""

    def __iter__(self):
        return self._emit(0)


class Except(_LeftSubsequenceOp):
    """Distinct keys of the left input absent from the right (EXCEPT)."""

    def __iter__(self):
        return self._emit(-1)


class UnionDistinct(_SetOpBase):
    """Distinct keys present in either input (UNION).

    Output rows interleave both inputs, so no code chain survives; use
    ``Distinct(UnionAll(left, right))`` for a coded union.
    """

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        for relation, left, right in self._aligned_groups():
            yield (left if relation <= 0 else right)[1], None
