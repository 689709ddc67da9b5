"""Row store with prefix truncation.

In a sorted table, each row's leading sort columns that equal the
preceding row's can be suppressed — exactly the columns counted by the
row's offset-value code.  Compression and decompression therefore run
entirely on codes, with **zero column comparisons**: transposing
between this format and full rows (or run-length-encoded columns) is a
pure copy, as the paper's Section 2.1 observes.  Compression reads the
table's offset column; decompression hands the stored offsets to
:func:`~repro.ovc.derive.codes_from_offsets`.

Non-key columns are stored in full.  A key value equal to its
predecessor's but of another type (``1`` after ``1.0``) is stored, with
every key column after it (:func:`~repro.ovc.derive.type_breaks`): the
shared prefix stops there, while the code's offset runs on.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from ..model import Schema, SortSpec, Table
from ..ovc.derive import codes_from_offsets, type_breaks


@dataclass(frozen=True)
class TruncatedRow:
    """One stored row: its code's offset, the surviving key suffix (the
    key columns not shared with the previous row: those from the offset
    on, or from a type break), and the untouched non-key columns."""

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
        rest_positions = _rest_positions(len(table.schema), key_positions)
        offsets = table._codes().offsets
        breaks = type_breaks(table.rows, offsets, key_positions)
        entries = [
            TruncatedRow(
                offset,
                tuple(row[p] for p in key_positions[breaks.get(i, offset):]),
                tuple(row[p] for p in rest_positions),
            )
            for i, (row, offset) in enumerate(zip(table.rows, offsets))
        ]
        return cls(table.schema, table.sort_spec, entries)

    def __len__(self) -> int:
        return len(self.entries)

    def stored_key_values(self) -> int:
        """Key column values physically stored (the compression win)."""
        return sum(len(e.key_suffix) for e in self.entries)

    def iter_rows_with_ovcs(self) -> Iterator[tuple[tuple, tuple]]:
        """Reconstruct full rows and paper-form codes — no comparisons
        (:meth:`to_table`'s rows and codes, pairwise: the whole table is
        built before the first row)."""
        table = self.to_table()
        return zip(table.rows, table.ovcs)

    def to_table(self) -> Table:
        """Full rows from a rolling key patched with each stored suffix;
        each code's offset is the stored one."""
        key_positions = self.sort_spec.positions(self.schema)
        arity = len(key_positions)
        rest_positions = _rest_positions(len(self.schema), key_positions)
        # Schema position -> index into ``key + rest`` (no gather when
        # the key leads the schema in order).
        order = sorted(
            range(len(self.schema)),
            key=(*key_positions, *rest_positions).__getitem__,
        )
        in_order = order == list(range(len(order)))
        gather = None if in_order else itemgetter(*order)
        key: tuple = ()
        rows = []
        for entry in self.entries:
            key = key[: arity - len(entry.key_suffix)] + entry.key_suffix
            full = key + entry.rest
            rows.append(full if gather is None else gather(full))
        ovcs = codes_from_offsets(
            rows,
            [entry.offset for entry in self.entries],
            key_positions,
            self.sort_spec.directions,
        )
        return Table(self.schema, rows, self.sort_spec, ovcs)


def _rest_positions(width: int, key_positions) -> list[int]:
    """The non-key column positions of a ``width``-column schema."""
    key_set = set(key_positions)
    return [i for i in range(width) if i not in key_set]
