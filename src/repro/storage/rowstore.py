"""Row store with prefix truncation.

In a sorted table, each row's leading sort columns that equal the
preceding row's can be suppressed — exactly the columns counted by the
row's offset-value code.  Compression and decompression therefore run
entirely on codes, with **zero column comparisons**: transposing
between this format and full rows (or run-length-encoded columns) is a
pure copy, as the paper's Section 2.1 observes.

Non-key columns are stored in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..model import Schema, SortSpec, Table, normalize_value


@dataclass(frozen=True)
class TruncatedRow:
    """One stored row: the shared-prefix length, the surviving key
    suffix, and the untouched non-key columns."""

    offset: int
    key_suffix: tuple
    rest: tuple


class PrefixTruncatedStore:
    """A sorted table held in prefix-truncated form.

    Construction consumes a :class:`Table` with codes; iteration
    reconstructs full rows *and* their codes without comparisons.
    """

    def __init__(
        self,
        schema: Schema,
        sort_spec: SortSpec,
        entries: list[TruncatedRow],
        first_values: list = None,
    ) -> None:
        self.schema = schema
        self.sort_spec = sort_spec
        self.entries = entries

    @classmethod
    def from_table(cls, table: Table) -> "PrefixTruncatedStore":
        if table.sort_spec is None:
            raise ValueError("prefix truncation requires a sorted table")
        table = table.with_ovcs()
        key_positions = table.sort_spec.positions(table.schema)
        key_set = set(key_positions)
        rest_positions = [
            i for i in range(len(table.schema)) if i not in key_set
        ]
        arity = table.sort_spec.arity
        entries: list[TruncatedRow] = []
        for row, (offset, _value) in zip(table.rows, table.ovcs):
            offset = min(offset, arity)
            suffix = tuple(row[key_positions[k]] for k in range(offset, arity))
            rest = tuple(row[p] for p in rest_positions)
            entries.append(TruncatedRow(offset, suffix, rest))
        return cls(table.schema, table.sort_spec, entries)

    def __len__(self) -> int:
        return len(self.entries)

    def stored_key_values(self) -> int:
        """Key column values physically stored (the compression win)."""
        return sum(len(e.key_suffix) for e in self.entries)

    def iter_rows_with_ovcs(self) -> Iterator[tuple[tuple, tuple]]:
        """Reconstruct full rows and paper-form codes — no comparisons.

        The code of each row is ``(offset, first surviving key value)``;
        reconstruction keeps a rolling full key and patches the suffix.
        """
        key_positions = self.sort_spec.positions(self.schema)
        key_set = set(key_positions)
        rest_positions = [
            i for i in range(len(self.schema)) if i not in key_set
        ]
        arity = self.sort_spec.arity
        directions = self.sort_spec.directions
        current_key: list = [None] * arity
        n_cols = len(self.schema)
        for entry in self.entries:
            for k, value in enumerate(entry.key_suffix):
                current_key[entry.offset + k] = value
            row = [None] * n_cols
            for k, pos in enumerate(key_positions):
                row[pos] = current_key[k]
            for value, pos in zip(entry.rest, rest_positions):
                row[pos] = value
            if entry.offset >= arity:
                ovc = (arity, 0)
            else:
                # Code values live in ascending comparison space, like
                # everything produced by repro.ovc.derive.
                ovc = (
                    entry.offset,
                    normalize_value(
                        current_key[entry.offset], directions[entry.offset]
                    ),
                )
            yield tuple(row), ovc

    def to_table(self) -> Table:
        rows: list[tuple] = []
        ovcs: list[tuple] = []
        for row, ovc in self.iter_rows_with_ovcs():
            rows.append(row)
            ovcs.append(ovc)
        return Table(self.schema, rows, self.sort_spec, ovcs)
