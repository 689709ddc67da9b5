"""Merge join with offset-value code support.

Both inputs must be sorted on their join keys.  The classic algorithm
advances two cursors and cross-products matching groups; offset-value
codes contribute twice (Graefe & Do, EDBT 2023), both through
:mod:`.groups`: within an input, group membership comes from the codes
(:func:`.groups.groups`), and across inputs one key comparison per
group pair aligns them (:func:`.groups.aligned`).  The join stops at
the first exhausted input.

The output is ordered on the join key and carries codes for it,
max-folded from the left input's group-head codes
(:class:`.groups.Fold`, again comparison-free).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Sequence

from ..model import Schema, SortSpec
from ..sorting.merge import _key_projector
from .groups import Fold, aligned, groups
from .operators import Operator


class MergeJoin(Operator):
    """Inner equi-join of two streams sorted on their join keys."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        right_prefix: str = "r_",
    ) -> None:
        if len(left_keys) != len(right_keys):
            raise ValueError("join key lists must have equal length")
        for op, keys, side in ((left, left_keys, "left"), (right, right_keys, "right")):
            if op.ordering is None or not op.ordering.satisfies(SortSpec(keys)):
                raise ValueError(
                    f"{side} input must be sorted on its join keys {list(keys)}"
                )
        left_names = list(left.schema.columns)
        used = set(left_names)
        right_names = []
        for name in right.schema.columns:
            while name in used:
                name = f"{right_prefix}{name}"
            used.add(name)
            right_names.append(name)
        schema = Schema(tuple(left_names + right_names))
        ordering = SortSpec(left_keys)
        super().__init__(schema, ordering, left.stats)
        self._left = left
        self._right = right
        self._lpos = left.schema.indices_of(left_keys)
        self._rpos = right.schema.indices_of(right_keys)
        self._arity = len(left_keys)

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        arity, stats = self._arity, self.stats
        fold = Fold(arity)
        pairs = aligned(
            groups(self._left, _key_projector(self._lpos, None), arity, stats),
            groups(self._right, _key_projector(self._rpos, None), arity, stats),
            stats,
        )
        for relation, left, right in pairs:
            if left is None or right is None:
                return
            _key, head, code, rest = left
            if relation < 0:
                fold.skip(code)
            elif relation == 0:
                _key, rhead, _code, rrest = right
                right_rows = [rhead, *rrest]
                ovc = fold.keep(code)
                for lrow in chain((head,), rest):
                    for rrow in right_rows:
                        yield lrow + rrow, ovc
                        ovc = None if ovc is None else (arity, 0)

    def _children(self) -> list[Operator]:
        return [self._left, self._right]
