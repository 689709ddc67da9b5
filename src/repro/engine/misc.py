"""Stateless stream operators: filter, project, limit, top-k.

The interesting one is :class:`Filter`: dropping rows breaks the
code-to-predecessor chain, but the max-theorem repairs it for free
(:class:`.groups.Fold`) — the code of a surviving row relative to the
last *emitted* row is the maximum of the codes along the skipped
stretch.  No column values are touched to keep the output stream fully
coded.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, Sequence

from ..model import Schema, SortSpec
from ..ovc.codes import ovc_to_code
from ..ovc.derive import project_ovc
from ..sorting.merge import _key_projector
from .groups import Fold
from .operators import Operator


class Filter(Operator):
    """Keep rows satisfying a predicate; repair codes via max-folding."""

    def __init__(self, child: Operator, predicate: Callable[[tuple], bool]) -> None:
        super().__init__(child.schema, child.ordering, child.stats)
        self._child = child
        self._predicate = predicate

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        ordering = self.ordering
        arity = ordering.arity if ordering is not None else 0
        fold = Fold(arity)
        for row, ovc in self._child:
            code = None if ovc is None or ordering is None else ovc_to_code(ovc, arity)
            if self._predicate(row):
                yield row, fold.keep(code)
            else:
                fold.skip(code)

    def _children(self) -> list[Operator]:
        return [self._child]


class Project(Operator):
    """Keep a subset of columns (optionally renamed).

    The output stays ordered — with its codes intact — exactly when the
    surviving columns include a prefix of the input ordering; the
    ordering is truncated to that prefix and codes are clamped the same
    way :func:`repro.ovc.derive.project_ovc` does.
    """

    def __init__(self, child: Operator, columns: Sequence[str]) -> None:
        positions = child.schema.indices_of(columns)
        ordering = None
        if child.ordering is not None:
            kept = 0
            for col in child.ordering:
                if col.name in columns:
                    kept += 1
                else:
                    break
            if kept > 0:
                ordering = child.ordering.prefix(kept)
        super().__init__(Schema(tuple(columns)), ordering, child.stats)
        self._child = child
        self._positions = positions

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        positions = self._positions
        if self.ordering is None:
            for row, _ovc in self._child:
                yield tuple(row[p] for p in positions), None
            return
        arity = self.ordering.arity
        for row, ovc in self._child:
            out = tuple(row[p] for p in positions)
            yield out, ovc if ovc is None else project_ovc(ovc, arity)

    def _children(self) -> list[Operator]:
        return [self._child]


class Limit(Operator):
    """Emit the first ``n`` rows of the child stream."""

    def __init__(self, child: Operator, n: int) -> None:
        if n < 0:
            raise ValueError("limit must be non-negative")
        super().__init__(child.schema, child.ordering, child.stats)
        self._child = child
        self._n = n

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        if self._n == 0:
            return
        for i, pair in enumerate(self._child):
            yield pair
            if i + 1 >= self._n:
                return

    def _children(self) -> list[Operator]:
        return [self._child]


class TopK(Operator):
    """Smallest ``k`` rows under a key — "top" via a bounded heap.

    On an input already ordered by the key this degenerates to
    :class:`Limit`; on unordered input it keeps a size-``k`` max-heap
    (in-sort "top" logic).  Output is ordered by the key but uncoded.
    """

    def __init__(self, child: Operator, key: SortSpec, k: int) -> None:
        if k < 0:
            raise ValueError("k must be non-negative")
        super().__init__(child.schema, key, child.stats)
        self._child = child
        self._key = key
        self._k = k

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        if self._k == 0:
            return
        if self._child.ordering is not None and self._child.ordering.satisfies(
            self._key
        ):
            yield from Limit(self._child, self._k)
            return
        project = _key_projector(
            self._key.positions(self.schema), self._key.directions
        )
        heap: list = []
        for seq, (row, _ovc) in enumerate(self._child):
            # Negated sequence keeps ties stable: among equal keys the
            # earliest row survives and sorts first.
            item = (_Reverse(project(row)), -seq, row)
            if len(heap) < self._k:
                heapq.heappush(heap, item)
            elif item > heap[0]:
                heapq.heapreplace(heap, item)
        for item in sorted(heap, reverse=True):
            yield item[2], None

    def _children(self) -> list[Operator]:
        return [self._child]


class _Reverse:
    """Inverts comparisons so heapq's min-heap acts as a max-heap."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: "_Reverse") -> bool:
        return other.value < self.value

    def __gt__(self, other: "_Reverse") -> bool:
        return other.value > self.value

    def __eq__(self, other) -> bool:
        return isinstance(other, _Reverse) and other.value == self.value
