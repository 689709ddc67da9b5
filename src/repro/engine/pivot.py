"""Sort-based PIVOT with offset-value codes.

Pivot spreads one column's values into output columns, aggregating a
value column per (group, pivot value) cell.  Over an input sorted on
``group_columns + (pivot_column,)``, the in-sort logic is a single
streaming pass over the groups of :func:`.groups.groups`, whose
boundaries fall out of the codes' offsets — the "pivot" entry in the
companion paper's list of sort-based operations sped up by offset-value
codes.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Sequence

from ..model import Schema, SortSpec
from ..sorting.merge import _key_projector
from .aggregate import _AGG_FINISH, _AGG_INIT, _AGG_STEP
from .groups import Fold, groups
from .operators import Operator


class Pivot(Operator):
    """Rotate ``pivot_column``'s values into columns.

    Output schema: the group columns followed by one column per entry
    of ``pivot_values`` (named ``{pivot_column}_{value}``).  Cells with
    no input rows hold ``None``; pivot values outside ``pivot_values``
    raise (declare the domain you expect).
    """

    def __init__(
        self,
        child: Operator,
        group_columns: Sequence[str],
        pivot_column: str,
        value_column: str,
        pivot_values: Sequence,
        agg: str = "sum",
    ) -> None:
        full_spec = SortSpec(tuple(group_columns) + (pivot_column,))
        if child.ordering is None or not child.ordering.satisfies(full_spec):
            raise ValueError(
                "pivot needs input sorted on group columns + pivot column"
            )
        if agg not in _AGG_INIT:
            raise ValueError(f"unknown aggregate {agg!r}")
        if len(set(pivot_values)) != len(pivot_values):
            raise ValueError("pivot values must be distinct")
        names = tuple(group_columns) + tuple(
            f"{pivot_column}_{v}" for v in pivot_values
        )
        super().__init__(Schema(names), SortSpec(group_columns), child.stats)
        self._child = child
        self._group_positions = child.schema.indices_of(group_columns)
        self._pivot_position = child.schema.index_of(pivot_column)
        self._value_position = child.schema.index_of(value_column)
        self._pivot_index = {v: i for i, v in enumerate(pivot_values)}
        self._agg = agg
        self._group_arity = len(group_columns)

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        agg = self._agg
        project = _key_projector(self._group_positions, None)
        fold = Fold(self._group_arity)
        for key, head, code, rest in groups(
            self._child, project, self._group_arity, self.stats
        ):
            cells: list = [None] * len(self._pivot_index)
            for row in chain((head,), rest):
                pivot_value = row[self._pivot_position]
                try:
                    column = self._pivot_index[pivot_value]
                except KeyError:
                    raise ValueError(
                        f"unexpected pivot value {pivot_value!r}; declare it "
                        "in pivot_values"
                    ) from None
                if cells[column] is None:
                    cells[column] = _AGG_INIT[agg]()
                _AGG_STEP[agg](cells[column], row[self._value_position])
            yield key + tuple(
                None if slot is None else _AGG_FINISH[agg](slot) for slot in cells
            ), fold.keep(code)

    def _children(self) -> list[Operator]:
        return [self._child]
