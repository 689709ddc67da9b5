"""Sort-based aggregation: in-stream group-by, distinct, and scalar
aggregates — all exploiting offset-value codes where the input carries
them.

"Group by" and "distinct" walk the groups of :func:`.groups.groups`,
so on a coded input they run without a single column comparison — the
in-stream logic of Graefe & Do (EDBT 2023) that this paper builds on.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Sequence

from ..aggregates import AGG_FINISH as _AGG_FINISH
from ..aggregates import AGG_INIT as _AGG_INIT
from ..aggregates import AGG_STEP as _AGG_STEP
from ..model import Schema, SortSpec
from ..sorting.merge import _key_projector
from .groups import Fold, groups
from .operators import Operator

#: Aggregate spec: (function, column) with function in
#: {"count", "sum", "min", "max", "avg", "first", "last"};
#: "count" takes no column: ("count", None).
AggSpec = tuple


class GroupBy(Operator):
    """In-stream grouping over a sorted input.

    The child must be ordered on (at least) ``group_columns`` as its
    leading sort columns.  Output columns: the group columns followed
    by one column per aggregate, named ``f"{fn}_{col}"`` (or ``count``).
    """

    def __init__(
        self,
        child: Operator,
        group_columns: Sequence[str],
        aggregates: Sequence[AggSpec] = (("count", None),),
    ) -> None:
        group_spec = SortSpec(group_columns)
        if child.ordering is None or not child.ordering.satisfies(group_spec):
            raise ValueError(
                f"in-stream group-by needs input sorted on {list(group_columns)}"
            )
        names = list(group_columns)
        for fn, col in aggregates:
            if fn not in _AGG_INIT:
                raise ValueError(f"unknown aggregate {fn!r}")
            names.append(fn if col is None else f"{fn}_{col}")
        super().__init__(Schema(tuple(names)), group_spec, child.stats)
        self._child = child
        self._group_positions = child.schema.indices_of(group_columns)
        self._arity = len(group_columns)
        self._aggs = [
            (fn, None if col is None else child.schema.index_of(col))
            for fn, col in aggregates
        ]

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        project = _key_projector(self._group_positions, None)
        fold = Fold(self._arity)
        for key, head, code, rest in groups(
            self._child, project, self._arity, self.stats
        ):
            state = [_AGG_INIT[fn]() for fn, _c in self._aggs]
            for row in chain((head,), rest):
                for slot, (fn, col) in zip(state, self._aggs):
                    _AGG_STEP[fn](slot, None if col is None else row[col])
            yield self._finish(key, state), fold.keep(code)

    def _finish(self, key: tuple, state: list) -> tuple:
        return key + tuple(
            _AGG_FINISH[fn](slot) for slot, (fn, _c) in zip(state, self._aggs)
        )

    def _children(self) -> list[Operator]:
        return [self._child]


class Aggregate(Operator):
    """Scalar (whole-input) aggregation; output is a single row."""

    def __init__(self, child: Operator, aggregates: Sequence[AggSpec]) -> None:
        names = tuple(
            fn if col is None else f"{fn}_{col}" for fn, col in aggregates
        )
        super().__init__(Schema(names), None, child.stats)
        self._child = child
        self._aggs = [
            (fn, None if col is None else child.schema.index_of(col))
            for fn, col in aggregates
        ]

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        state = [_AGG_INIT[fn]() for fn, _c in self._aggs]
        for row, _ovc in self._child:
            for slot, (fn, col) in zip(state, self._aggs):
                _AGG_STEP[fn](slot, None if col is None else row[col])
        yield tuple(
            _AGG_FINISH[fn](slot) for slot, (fn, _c) in zip(state, self._aggs)
        ), None


class Distinct(Operator):
    """Duplicate removal over the child's sort order.

    With codes, a duplicate is any row whose offset equals the key
    arity — dropped without comparisons.  ``key_columns`` defaults to
    the child's full ordering and must be a prefix of it.
    """

    def __init__(
        self, child: Operator, key_columns: Sequence[str] | None = None
    ) -> None:
        if child.ordering is None:
            raise ValueError("in-stream distinct needs a sorted input")
        spec = (
            child.ordering
            if key_columns is None
            else SortSpec(key_columns)
        )
        if not child.ordering.satisfies(spec):
            raise ValueError("distinct key must be a prefix of the input order")
        super().__init__(child.schema, spec, child.stats)
        self._child = child
        self._positions = child.schema.indices_of(spec.names)
        self._arity = spec.arity

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        project = _key_projector(self._positions, None)
        fold = Fold(self._arity)
        for _key, head, code, _rest in groups(
            self._child, project, self._arity, self.stats
        ):
            yield head, fold.keep(code)

    def _children(self) -> list[Operator]:
        return [self._child]

