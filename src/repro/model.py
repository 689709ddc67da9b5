"""Core data model: schemas, sort specifications, and sorted tables.

The paper's rows are tuples of column values; each row may carry an
offset-value code (OVC) describing its difference from the preceding row
in the table's sort order.  This module defines the user-facing bundles:

* :class:`Schema` — named columns with positional lookup.
* :class:`SortSpec` — an ordered list of sort columns, each ascending or
  descending.  The *arity* of the spec is the number of sort columns; the
  paper's "lists of columns" (``A``, ``B``, ...) are simply contiguous
  column groups inside one spec.
* :class:`Table` — rows plus (optionally) a sort spec and per-row OVCs.

Offset-value codes are represented throughout the library in two
equivalent forms:

* the *paper form* ``(offset, value)`` — the row agrees with its
  predecessor on the first ``offset`` sort columns and its column at
  position ``offset`` holds ``value``; an exact duplicate has
  ``offset == arity`` and value ``0``;
* the *comparable form* ``(arity - offset, value)`` — a plain Python
  tuple whose natural ascending order is exactly the ascending
  offset-value code order of the paper (lower code wins).  This form
  needs no domain bound and works for integers and strings alike.

Conversions between the two forms live in :mod:`repro.ovc.codes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence


class Desc:
    """Order-reversing wrapper for non-numeric column values.

    Integer columns sorted descending are normalized by negation; values
    without a cheap negation (strings, tuples) are wrapped in ``Desc``,
    whose comparisons invert the wrapped value's order.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "Desc") -> bool:
        return other.value < self.value

    def __le__(self, other: "Desc") -> bool:
        return other.value <= self.value

    def __gt__(self, other: "Desc") -> bool:
        return other.value > self.value

    def __ge__(self, other: "Desc") -> bool:
        return other.value >= self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Desc) and other.value == self.value

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(("Desc", self.value))

    def __repr__(self) -> str:
        return f"Desc({self.value!r})"


def normalize_value(value: Any, ascending: bool) -> Any:
    """Map a column value into ascending comparison space.

    Ascending columns pass through; descending integer (and float)
    columns negate; anything else is wrapped in :class:`Desc`.
    """
    if ascending:
        return value
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return -value
    return Desc(value)


@dataclass(frozen=True)
class Schema:
    """Named columns of a table, with name -> position lookup."""

    columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"duplicate column names in schema: {self.columns}")

    def index_of(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r} in schema {self.columns}") from None

    def indices_of(self, names: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.index_of(n) for n in names)

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, name: object) -> bool:
        return name in self.columns

    @staticmethod
    def of(*names: str) -> "Schema":
        return Schema(tuple(names))

    @staticmethod
    def numbered(prefix: str, count: int) -> "Schema":
        """A schema of ``count`` columns named ``prefix0 .. prefixN-1``."""
        return Schema(tuple(f"{prefix}{i}" for i in range(count)))


@dataclass(frozen=True)
class SortColumn:
    """One component of a sort key: a column name plus direction."""

    name: str
    ascending: bool = True

    def reversed(self) -> "SortColumn":
        return SortColumn(self.name, not self.ascending)

    def __repr__(self) -> str:
        return self.name if self.ascending else f"{self.name} DESC"


class SortSpec:
    """An ordered list of sort columns.

    Construction accepts plain names (ascending), names suffixed with
    `` DESC``, or :class:`SortColumn` instances::

        SortSpec.of("A", "B DESC", SortColumn("C"))

    A spec is immutable by convention, and a dictionary key on every
    hot path (order cache, coalescing registry), so its hash, its
    column ``names`` and its ``label`` (``"A,B DESC"``, what logs and
    strategy labels print) are computed once.
    """

    __slots__ = ("columns", "_hash", "names", "label")

    def __init__(self, columns: Iterable[SortColumn | str]) -> None:
        resolved: list[SortColumn] = []
        for col in columns:
            if isinstance(col, SortColumn):
                resolved.append(col)
            elif isinstance(col, str):
                stripped = col.strip()
                if stripped.upper().endswith(" DESC"):
                    resolved.append(SortColumn(stripped[:-5].strip(), ascending=False))
                elif stripped.upper().endswith(" ASC"):
                    resolved.append(SortColumn(stripped[:-4].strip(), ascending=True))
                else:
                    resolved.append(SortColumn(stripped))
            else:
                raise TypeError(f"cannot build SortColumn from {col!r}")
        names = [c.name for c in resolved]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate sort columns: {names}")
        self.columns = tuple(resolved)
        self._hash = hash(self.columns)
        self.names = tuple(names)
        self.label = ",".join(map(str, resolved))

    @staticmethod
    def of(*columns: SortColumn | str) -> "SortSpec":
        return SortSpec(columns)

    @property
    def arity(self) -> int:
        return len(self.columns)

    @property
    def directions(self) -> tuple[bool, ...]:
        return tuple(c.ascending for c in self.columns)

    def positions(self, schema: Schema) -> tuple[int, ...]:
        """Physical column positions of the sort columns in ``schema``."""
        return schema.indices_of(self.names)

    def prefix(self, length: int) -> "SortSpec":
        return SortSpec(self.columns[:length])

    def suffix(self, start: int) -> "SortSpec":
        return SortSpec(self.columns[start:])

    def key_for(self, schema: Schema):
        """A callable projecting a row to its normalized sort key tuple.

        Suitable for ``sorted(rows, key=...)`` — descending columns are
        normalized so plain tuple order matches the spec.
        """
        positions = self.positions(schema)
        directions = self.directions
        if all(directions):
            return lambda row: tuple(row[p] for p in positions)
        pairs = tuple(zip(positions, directions))
        return lambda row: tuple(normalize_value(row[p], asc) for p, asc in pairs)

    def common_prefix_len(self, other: "SortSpec") -> int:
        n = 0
        for a, b in zip(self.columns, other.columns):
            if a != b:
                break
            n += 1
        return n

    def satisfies(self, required: "SortSpec") -> bool:
        """True if data sorted on ``self`` is also sorted on ``required``.

        Without functional-dependency information this holds exactly when
        ``required`` is a prefix of ``self`` (Table 1 case 0).
        """
        return self.common_prefix_len(required) == required.arity

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[SortColumn]:
        return iter(self.columns)

    def __getitem__(self, item):
        got = self.columns[item]
        if isinstance(item, slice):
            return SortSpec(got)
        return got

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SortSpec) and self.columns == other.columns

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild (and re-hash) on unpickling: string hashes differ
        # between processes.
        return SortSpec, (self.columns,)

    def __repr__(self) -> str:
        inner = ", ".join(repr(c) for c in self.columns)
        return f"SortSpec({inner})"


#: Paper-form offset-value code: (offset, value).  Exact duplicates use
#: (arity, 0).  See module docstring.
OVC = tuple


class _Facts:
    """Facts derived from one row sequence (see :meth:`Table._facts`).

    ``rows`` is a shallow snapshot of the sequence the facts describe
    and, with ``schema``, the witness they are revalidated against;
    the other slots are filled by their owners on first use (``None``
    = not computed yet): ``fingerprint`` by
    :func:`repro.cache.fingerprint.fingerprint_table`, ``fields``
    (column position -> that column's order-preserving surrogate array
    and bit width, one entry per key column a fast kernel has packed so
    far) by :func:`repro.fastpath.packed.table_fields`, ``books`` (the
    key columns a code book may serve) by its ``table_books``.  Each
    depends only on the row multiset, its arrangement and the schema —
    what the witness guards; a book also needs the rows' exact types,
    so its user checks them by row identity.
    """

    __slots__ = ("rows", "schema", "fingerprint", "fields", "books")

    def __init__(self, rows, schema: Schema) -> None:
        self.rows = rows
        self.schema = schema
        self.fingerprint = None
        self.fields = None
        self.books = None


@dataclass
class Table:
    """Rows plus optional sort order and per-row offset-value codes.

    ``ovcs`` is parallel to ``rows`` and holds paper-form
    ``(offset, value)`` pairs relative to the preceding row under
    ``sort_spec``; the first row's code is ``(0, first sort column)``,
    mirroring Figure 5 of the paper.

    A table is mutable: ``rows`` and ``ovcs`` may be edited in place or
    re-assigned at any time.  The library keeps two records on a table,
    each revalidated on every read against a snapshot of what it was
    computed from, so an edit is never answered from stale facts — and
    an unchanged table never pays for them twice:

    * :meth:`_facts`, from the rows (fingerprint, the fast kernels' key
      fields and code-book spans), witness ``rows == snapshot``;
    * :meth:`_codes`, from the codes (offsets, heads, segment bounds,
      ``auto``'s strategy; the merge chunks, which read the rows too,
      only while :meth:`_facts` is the same record), witness ``ovcs ==
      snapshot``.
    """

    schema: Schema
    rows: list[tuple]
    sort_spec: SortSpec | None = None
    ovcs: list[OVC] | None = field(default=None)

    def __post_init__(self) -> None:
        self._memo: _Facts | None = None
        self._code_memo = None
        if self.ovcs is not None and len(self.ovcs) != len(self.rows):
            raise ValueError(
                f"{len(self.ovcs)} ovcs for {len(self.rows)} rows"
            )
        if self.sort_spec is not None:
            for name in self.sort_spec.names:
                if name not in self.schema:
                    raise KeyError(f"sort column {name!r} not in schema")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def _facts(self) -> _Facts:
        """The memo record for the rows as they are now.

        The record is kept while ``self.rows`` compares equal to its
        snapshot (a C-level list comparison that short-circuits on row
        identity: microseconds for an untouched table) and the schema
        is unchanged; anything else — an in-place edit, append, delete,
        sort, or a re-assigned ``rows`` — starts a fresh, empty record.
        Equal rows hash equally and are sized equally, so "compares
        equal" is exactly the condition under which the facts hold.
        Facts are computed from the snapshot, never from the live list,
        so a record is always consistent with its own witness.
        """
        memo = self._memo
        if (
            memo is None
            or memo.schema != self.schema
            or self.rows != memo.rows
        ):
            memo = self._memo = _Facts(self.rows[:], self.schema)
        return memo

    def _codes(self):
        """The :class:`~repro.core.classify.CodeFacts` record for the
        codes as they are now (``ovcs`` set), kept while they compare
        equal to its snapshot, as :meth:`_facts` keeps its own."""
        memo = self._code_memo
        if memo is None or self.ovcs != memo.ovcs:
            from .core.classify import CodeFacts

            memo = self._code_memo = CodeFacts(self.ovcs[:])
        return memo

    def column(self, name: str) -> list:
        p = self.schema.index_of(name)
        return [row[p] for row in self.rows]

    def with_ovcs(self) -> "Table":
        """Return self, deriving offset-value codes first if absent."""
        if self.ovcs is None:
            from .ovc.derive import derive_table_ovcs

            self.ovcs = derive_table_ovcs(self)
        return self

    def is_sorted(self) -> bool:
        """Check the claimed sort order by scanning adjacent rows."""
        if self.sort_spec is None:
            raise ValueError("table has no sort spec to verify")
        key = self.sort_spec.key_for(self.schema)
        rows = self.rows
        return all(key(rows[i - 1]) <= key(rows[i]) for i in range(1, len(rows)))

    def validate(self) -> "Table":
        """Assert order and code authenticity; returns self.

        Raises :class:`repro.testing.ValidationError` on any violation —
        use at trust boundaries before relying on cached codes.
        """
        from .testing import assert_table_valid

        assert_table_valid(self)
        return self

    def pretty(self, limit: int = 20) -> str:
        """A small fixed-width rendering for examples and debugging."""
        header = list(self.schema.columns)
        show_ovc = self.ovcs is not None
        if show_ovc:
            header += ["offset", "value"]
        body: list[list[str]] = []
        for i, row in enumerate(self.rows[:limit]):
            cells = [str(v) for v in row]
            if show_ovc:
                off, val = self.ovcs[i]
                cells += [str(off), str(val)]
            body.append(cells)
        widths = [
            max(len(header[c]), *(len(r[c]) for r in body)) if body else len(header[c])
            for c in range(len(header))
        ]
        lines = [
            "  ".join(h.rjust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for cells in body:
            lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)
