"""Column store with run-length encoding of leading sort columns.

Figure 1's second block: within a sorted table in columnar format,
run-length encoding suppresses a column value when the row agrees with
its predecessor on that column *and all sort columns before it* — the
same values suppressed by prefix truncation in row format.  The run
boundaries therefore encode offset-value codes, and transposition in
either direction needs **no column comparisons** (hypothesis 6): key
column ``k`` starts a run exactly where a row's offset is at most
``k``, so compression reads the table's offset column, and
transposition rebuilds it with one store per run and reads each code's
value off its row (:func:`~repro.ovc.derive.codes_from_offsets`).

Non-key columns are stored uncompressed (one value per row).  A key
value equal to its predecessor's but of another type (``1`` after
``1.0``) starts a run, as do the key columns after it
(:func:`~repro.ovc.derive.type_breaks`); such a row's code offset,
which runs past the break, is kept beside the runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import sub
from typing import Iterator

from ..core.classify import head_positions
from ..model import Schema, SortSpec, Table
from ..ovc.derive import codes_from_offsets, type_breaks


@dataclass(frozen=True)
class RleColumn:
    """Runs of one leading sort column: parallel value/length lists."""

    values: tuple
    lengths: tuple

    def __len__(self) -> int:
        return len(self.values)

    def starts(self) -> list[int]:
        """The row index at which each run begins."""
        starts = list(accumulate(self.lengths, initial=0))
        starts.pop()  # where the last run ends
        return starts


class ColumnStore:
    """A sorted table in columnar format.

    Sort-key columns are run-length encoded along prefix boundaries;
    remaining columns are plain lists.
    """

    def __init__(
        self,
        schema: Schema,
        sort_spec: SortSpec,
        key_columns: list[RleColumn],
        plain_columns: dict[str, list],
        n_rows: int,
        retyped: dict[int, int] | None = None,
    ) -> None:
        self.schema = schema
        self.sort_spec = sort_spec
        self.key_columns = key_columns
        self.plain_columns = plain_columns
        self.n_rows = n_rows
        #: Row -> code offset, for the rows whose runs start at a type
        #: break before their offset.
        self.retyped = retyped or {}

    def __len__(self) -> int:
        return self.n_rows

    @classmethod
    def from_table(cls, table: Table) -> "ColumnStore":
        """Compress using the table's codes — no comparisons needed:
        column ``k`` starts a new run exactly where ``offset <= k``, or
        where a type break (:func:`type_breaks`) is."""
        if table.sort_spec is None:
            raise ValueError("column-store compression requires a sorted table")
        table = table.with_ovcs()
        rows = table.rows
        n = len(rows)
        offsets = table._codes().offsets
        key_positions = table.sort_spec.positions(table.schema)
        breaks = type_breaks(rows, offsets, key_positions)
        retyped = {i: offsets[i] for i in breaks}
        if breaks:
            offsets = list(offsets)
            for i, k in breaks.items():
                offsets[i] = k
        key_columns = []
        for k, pos in enumerate(key_positions):
            starts = head_positions(offsets, k + 1)
            lengths = map(sub, starts[1:] + [n], starts)
            key_columns.append(
                RleColumn(tuple(rows[i][pos] for i in starts), tuple(lengths))
            )
        key_set = set(key_positions)
        plain = {
            name: [row[i] for row in rows]
            for i, name in enumerate(table.schema.columns)
            if i not in key_set
        }
        return cls(table.schema, table.sort_spec, key_columns, plain, n,
                   retyped)

    def stored_key_values(self) -> int:
        """Key values physically stored — equals the prefix-truncation
        figure for the same table (both keep the same type breaks)."""
        return sum(len(col) for col in self.key_columns)

    def iter_rows_with_ovcs(self) -> Iterator[tuple[tuple, tuple]]:
        """Transpose to rows plus codes, without comparisons
        (:meth:`to_table`'s rows and codes, pairwise: the whole table is
        built before the first row)."""
        table = self.to_table()
        return zip(table.rows, table.ovcs)

    def to_table(self) -> Table:
        """Transpose to a coded table, without comparisons.  Each run
        column expands at C speed, run by run (a column with one run per
        row is its values); a row's offset is the first key column
        starting a run there (arity if none): one store per run, last
        column first; a retyped row's offset is the kept one."""
        n = self.n_rows
        arity = self.sort_spec.arity
        key_positions = self.sort_spec.positions(self.schema)
        offsets = [arity] * n
        columns: list = [None] * len(self.schema)
        for k in range(arity - 1, -1, -1):
            col = self.key_columns[k]
            if len(col) == n:
                # Every row starts a run: the column is its values.
                offsets = [k] * n
                columns[key_positions[k]] = col.values
                continue
            for start in col.starts():
                offsets[start] = k
            columns[key_positions[k]] = chain.from_iterable(
                map(repeat, col.values, col.lengths)
            )
        for i, offset in self.retyped.items():
            offsets[i] = offset
        for name, values in self.plain_columns.items():
            columns[self.schema.index_of(name)] = values
        rows = tuple(zip(*columns))
        ovcs = codes_from_offsets(
            rows, offsets, key_positions, self.sort_spec.directions
        )
        return Table(self.schema, rows, self.sort_spec, ovcs)

    def segment_boundaries(self, prefix_len: int) -> list[int]:
        """Row indices where a new distinct prefix value begins —
        straight off the leading column's run lengths (hypothesis 6)."""
        if prefix_len < 1 or prefix_len > self.sort_spec.arity:
            raise ValueError("prefix_len out of range")
        starts = self.key_columns[prefix_len - 1].starts()
        if not self.retyped:
            return starts
        return [i for i in starts if self.retyped.get(i, 0) < prefix_len]
