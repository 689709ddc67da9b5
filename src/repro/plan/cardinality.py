"""Distinct-value estimation for edge costing.

The planner prices a candidate edge ``u -> v`` with
:class:`~repro.core.cost.CostModel`, which needs the number of
segments (distinct prefix values) and runs (distinct prefix+infix
values) the modification would see.  For materialized orders those
come exactly from the stored offset-count histogram; for a *planned*
parent no codes exist yet, so the planner falls back to this sampled
estimator.

The estimate is Chao1 over an evenly-strided sample: ``d = d_s +
f1^2 / (2 f2)`` where ``d_s`` is the sample's distinct count and
``f1``/``f2`` count values seen exactly once/twice.  When the sample
is the whole table the count is exact; when no doubletons exist the
singleton density is scaled linearly.  Results are clamped to
``[d_s, n]`` and memoized per column set — distinct counts do not
depend on column order or sort direction, so one probe serves every
edge that touches the same columns.  They depend on nothing but the
rows and the schema either, so the planner keeps one estimator per
table, on the table (:func:`repro.plan.planner.plan_batch`), and the
memo outlives the batch that filled it.
"""

from __future__ import annotations

from collections import Counter

from ..model import Schema, SortSpec


class CardinalityEstimator:
    """Sampled distinct-count estimates over one table's rows."""

    def __init__(
        self, rows: list, schema: Schema, max_sample: int = 8192
    ) -> None:
        self._rows = rows
        self._schema = schema
        n = len(rows)
        step = max(1, n // max_sample) if max_sample > 0 else 1
        self._sample = rows[::step]
        self._memo: dict[frozenset, int] = {}

    def distinct(self, names: tuple) -> int:
        """Estimated distinct count of the tuple ``names`` projects."""
        if not names:
            return 1
        key = frozenset(names)
        got = self._memo.get(key)
        if got is not None:
            return got
        n = len(self._rows)
        if n == 0:
            self._memo[key] = 1
            return 1
        positions = SortSpec(list(names)).positions(self._schema)
        seen = Counter(
            tuple(row[p] for p in positions) for row in self._sample
        )
        d_s = len(seen)
        s = len(self._sample)
        if s == n:
            d = float(d_s)
        else:
            f1 = sum(1 for c in seen.values() if c == 1)
            f2 = sum(1 for c in seen.values() if c == 2)
            if f2 > 0:
                d = d_s + (f1 * f1) / (2.0 * f2)
            elif f1 > 0:
                d = d_s * (n / s)
            else:
                d = float(d_s)
        est = max(d_s, min(int(round(d)), n))
        self._memo[key] = est
        return est
