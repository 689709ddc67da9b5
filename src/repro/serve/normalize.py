"""Target-order normalization for the serving layer.

Two requests for ``(A, B)`` and ``(A, C)`` over the same source are
*the same request* when column ``A`` alone is row-unique: a unique
prefix fully determines the row order, every trailing key is dead
weight, and the produced rows **and codes** are identical — with no
duplicate prefixes, adjacent rows always differ inside the prefix, so
every offset-value code lands strictly before the truncation point and
the exact-duplicate sentinel never fires.

The service therefore truncates each submitted order to its shortest
row-unique prefix before building the coalescing key, so trivially
equivalent variants attach to one in-flight execution (and one cache
entry) instead of racing each other.  Uniqueness is a property of the
source's rows and the prefix's column *set* — independent of key order
and sort direction — so probes are memoized per ``(source_key, column
set)``.

In front of it, a second memo maps ``(source_key, source order, spec)``
to the normalized spec and to whether the source's own order already
satisfies it (a ``Sort`` passes such a source through): a repeat
request is one dictionary read with no lock, not up to ``arity - 1``
locked probes and a walk over the two orders' columns.  Both memos
share one bound and are cleared whole when they reach it.
"""

from __future__ import annotations

import threading

from ..model import SortSpec, Table


class SpecNormalizer:
    """Truncates sort specs to their shortest row-unique prefix."""

    def __init__(self, max_entries: int = 256) -> None:
        self._memo: dict[tuple, bool] = {}
        #: ``(shortest row-unique proper prefix or None, passes)``.
        self._specs: dict[tuple, tuple[SortSpec | None, bool]] = {}
        self._max = max_entries
        self._lock = threading.Lock()

    def normalize(self, fp, source: Table, spec: SortSpec) -> SortSpec:
        """``spec`` truncated after its first row-unique prefix, or
        ``spec`` itself when no proper prefix determines the order."""
        return self.resolve(fp, source, spec)[0]

    def resolve(
        self, fp, source: Table, spec: SortSpec
    ) -> tuple[SortSpec, bool]:
        """``(normalize(fp, source, spec), passes)``: ``passes`` is
        whether ``source``'s own order already satisfies that order."""
        key = (fp.source_key, source.sort_spec, spec)
        try:
            got, passes = self._specs[key]
        except KeyError:
            got = next((spec.prefix(k) for k in range(1, spec.arity)
                        if self._unique(fp, source, spec, k)), None)
            ordering = source.sort_spec
            passes = ordering is not None and ordering.satisfies(got or spec)
            self._remember(self._specs, key, (got, passes))
        return got or spec, passes

    def _remember(self, memo: dict, key: tuple, value) -> None:
        with self._lock:
            if len(memo) >= self._max:
                memo.clear()
            memo[key] = value

    def _unique(self, fp, source: Table, spec: SortSpec, k: int) -> bool:
        key = (fp.source_key, frozenset(spec.names[:k]))
        with self._lock:
            got = self._memo.get(key)
        if got is not None:
            return got
        positions = spec.prefix(k).positions(source.schema)
        seen = set()
        unique = True
        for row in source.rows:
            value = tuple(row[p] for p in positions)
            if value in seen:
                unique = False
                break
            seen.add(value)
        self._remember(self._memo, key, unique)
        return unique
