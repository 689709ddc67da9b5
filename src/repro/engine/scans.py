"""Leaf operators: scans of tables, b-trees, and column stores.

All three deliver offset-value codes with their rows at no comparison
cost: a table's codes are derived once and stored, b-tree leaves store
theirs, and a column store's run lengths give each row's offset
(:func:`repro.ovc.derive.codes_from_offsets` reads the values).
"""

from __future__ import annotations

from typing import Iterator

from ..model import Table
from ..ovc.stats import ComparisonStats
from ..storage.btree import BTree
from ..storage.colstore import ColumnStore
from .operators import Operator


class TableScan(Operator):
    """Scan an in-memory table; codes come from the table."""

    def __init__(self, table: Table, stats: ComparisonStats | None = None) -> None:
        if table.sort_spec is not None:
            table = table.with_ovcs()
        super().__init__(table.schema, table.sort_spec, stats)
        self._table = table

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        table = self._table
        if table.ovcs is None:
            for row in table.rows:
                yield row, None
        else:
            yield from zip(table.rows, table.ovcs)

    def to_table(self) -> Table:
        """The scanned table, not a copy: a consumer that materializes
        its input (``Sort``, ``Query.order_by_many``) works on the
        caller's :class:`Table` (or, for a sorted table without codes,
        the coded table :meth:`Table.with_ovcs` keeps on it) and finds
        the facts memoized there instead of rebuilding it row by row."""
        return self._table

    def _explain_detail(self) -> str:
        return f"({len(self._table)} rows)" + super()._explain_detail()


class BTreeScan(Operator):
    """Ordered scan of a b-tree; leaf prefix truncation supplies codes."""

    def __init__(self, tree: BTree, stats: ComparisonStats | None = None) -> None:
        super().__init__(tree.schema, tree.sort_spec, stats)
        self._tree = tree

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        yield from self._tree.scan()

    def _explain_detail(self) -> str:
        return f"({len(self._tree)} rows)" + super()._explain_detail()


class ColumnStoreScan(Operator):
    """Transposing scan of an RLE column store (hypothesis 6): rows and
    codes materialize from run boundaries without comparisons.

    The transposition is column by column, so iteration builds the
    whole table before yielding its first row: a consumer that stops
    early (``Limit``, ``TopK``) still pays for every row.
    """

    def __init__(
        self, store: ColumnStore, stats: ComparisonStats | None = None
    ) -> None:
        super().__init__(store.schema, store.sort_spec, stats)
        self._store = store

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        yield from self._store.iter_rows_with_ovcs()

    def to_table(self) -> Table:
        """:meth:`ColumnStore.to_table`, built column by column."""
        return self._store.to_table()

    def _explain_detail(self) -> str:
        return f"({len(self._store)} rows)" + super()._explain_detail()
