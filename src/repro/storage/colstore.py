"""Column store with run-length encoding of leading sort columns.

Figure 1's second block: within a sorted table in columnar format,
run-length encoding suppresses a column value when the row agrees with
its predecessor on that column *and all sort columns before it* — the
same values suppressed by prefix truncation in row format.  The run
boundaries therefore encode offset-value codes, and transposition in
either direction needs **no column comparisons** (hypothesis 6).

Non-key columns are stored uncompressed (one value per row).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..model import Schema, SortSpec, Table, normalize_value


@dataclass(frozen=True)
class RleColumn:
    """Runs of one leading sort column: parallel value/length lists."""

    values: tuple
    lengths: tuple

    def __len__(self) -> int:
        return len(self.values)


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
    ) -> None:
        self.schema = schema
        self.sort_spec = sort_spec
        self.key_columns = key_columns
        self.plain_columns = plain_columns
        self.n_rows = n_rows

    def __len__(self) -> int:
        return self.n_rows

    @classmethod
    def from_table(cls, table: Table) -> "ColumnStore":
        """Compress using the table's codes — no comparisons needed:
        column ``k`` starts a new run exactly where ``offset <= k``."""
        if table.sort_spec is None:
            raise ValueError("column-store compression requires a sorted table")
        table = table.with_ovcs()
        key_positions = table.sort_spec.positions(table.schema)
        arity = table.sort_spec.arity
        values: list[list] = [[] for _ in range(arity)]
        lengths: list[list[int]] = [[] for _ in range(arity)]
        for row, (offset, _value) in zip(table.rows, table.ovcs):
            for k in range(arity):
                if k >= offset or not lengths[k]:
                    values[k].append(row[key_positions[k]])
                    lengths[k].append(1)
                else:
                    lengths[k][-1] += 1
        key_columns = [
            RleColumn(tuple(v), tuple(l)) for v, l in zip(values, lengths)
        ]
        key_set = set(key_positions)
        plain = {
            name: [row[i] for row in table.rows]
            for i, name in enumerate(table.schema.columns)
            if i not in key_set
        }
        return cls(table.schema, table.sort_spec, key_columns, plain, len(table))

    def stored_key_values(self) -> int:
        """Key values physically stored — equals the prefix-truncation
        figure for the same table."""
        return sum(len(col) for col in self.key_columns)

    def iter_rows_with_ovcs(self) -> Iterator[tuple[tuple, tuple]]:
        """Transpose to rows plus codes, without comparisons.

        A row's offset is the first key column whose run starts at this
        row; within runs the offset is the key arity (duplicate).
        """
        arity = self.sort_spec.arity
        directions = self.sort_spec.directions
        key_positions = self.sort_spec.positions(self.schema)
        key_set = set(key_positions)
        plain_by_pos = {
            self.schema.index_of(name): col
            for name, col in self.plain_columns.items()
        }
        n_cols = len(self.schema)

        # Cursor state per key column: (run index, rows left in run).
        cursors = [[0, 0] for _ in range(arity)]
        current = [None] * arity
        for i in range(self.n_rows):
            offset = arity
            for k in range(arity - 1, -1, -1):
                run_idx, left = cursors[k]
                if left == 0:
                    offset = k
                    current[k] = self.key_columns[k].values[run_idx]
                    cursors[k][1] = self.key_columns[k].lengths[run_idx]
                    cursors[k][0] = run_idx + 1
                cursors[k][1] -= 1
            row = [None] * n_cols
            for k, pos in enumerate(key_positions):
                row[pos] = current[k]
            for pos, col in plain_by_pos.items():
                row[pos] = col[i]
            if offset >= arity:
                ovc = (arity, 0)
            else:
                ovc = (offset, normalize_value(current[offset], directions[offset]))
            yield tuple(row), ovc

    def to_table(self) -> Table:
        rows: list[tuple] = []
        ovcs: list[tuple] = []
        for row, ovc in self.iter_rows_with_ovcs():
            rows.append(row)
            ovcs.append(ovc)
        return Table(self.schema, rows, self.sort_spec, ovcs)

    def segment_boundaries(self, prefix_len: int) -> list[int]:
        """Row indices where a new distinct prefix value begins —
        straight off the leading column's run lengths (hypothesis 6)."""
        if prefix_len < 1 or prefix_len > self.sort_spec.arity:
            raise ValueError("prefix_len out of range")
        col = self.key_columns[prefix_len - 1]
        boundaries = []
        at = 0
        for length in col.lengths:
            boundaries.append(at)
            at += length
        return boundaries
