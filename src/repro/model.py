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

from dataclasses import FrozenInstanceError, dataclass, replace
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
    columns negate; anything else is wrapped in :class:`Desc`.  A bool
    is the int it equals, so a descending ``True`` becomes ``-1`` like
    ``1`` (an ``int``, not a bool): ``True`` and ``1`` stay equal keys.
    """
    if ascending:
        return value
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

    A spec is immutable (assigning an attribute raises
    :class:`dataclasses.FrozenInstanceError`, as on a :class:`Table`),
    so one spec may be shared by every request for its order, and it
    is a dictionary key on every hot path (order cache, coalescing
    registry): its hash, its column ``names`` and its ``label``
    (``"A,B DESC"``, what logs and strategy labels print) are computed
    once.
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
        put = object.__setattr__
        put(self, "columns", tuple(resolved))
        put(self, "_hash", hash(self.columns))
        put(self, "names", tuple(names))
        put(self, "label", ",".join(map(str, resolved)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

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
    """Facts derived from one table's rows (see :meth:`Table._facts`).

    Each slot is filled by its owner on first use (``None`` = not
    computed yet): ``fingerprint`` by
    :func:`repro.cache.fingerprint.fingerprint_table`, ``fields``
    (column position -> that column's order-preserving surrogate array
    and bit width, one entry per key column a fast kernel has packed so
    far) by :func:`repro.fastpath.packed.table_fields`, ``books`` (the
    key columns a code book may serve) by its ``table_books``.  A table
    never changes, so neither does any of them: the record lives
    exactly as long as its table (and the coded table
    :meth:`Table.with_ovcs` derives from it, which has the same rows
    and shares it).
    """

    __slots__ = ("fingerprint", "fields", "books")

    def __init__(self) -> None:
        self.fingerprint = None
        self.fields = None
        self.books = None


@dataclass(frozen=True)
class Table:
    """Rows plus optional sort order and per-row offset-value codes.

    ``ovcs`` is parallel to ``rows`` and holds paper-form
    ``(offset, value)`` pairs relative to the preceding row under
    ``sort_spec``; the first row's code is ``(0, first sort column)``,
    mirroring Figure 5 of the paper.

    A table is a value.  ``rows`` and ``ovcs`` are tuples (a list handed
    to the constructor is copied into one, a tuple is kept as is), and
    no attribute can be re-assigned: an edit is
    ``dataclasses.replace(table, rows=...)``, a new table.  So whatever
    the library learns about a table holds as long as the table exists,
    and it keeps two records on it, each built on first use:

    * :meth:`_facts`, from the rows (fingerprint, the fast kernels' key
      fields and code-book spans), shared with the coded table
      :meth:`with_ovcs` derives;
    * :meth:`_codes`, from the codes (offsets, heads, segment bounds,
      merge chunks, ``auto``'s strategy).

    A result may share its sequences with another table or a cache
    entry: nobody can change them.
    """

    schema: Schema
    rows: tuple[tuple, ...]
    sort_spec: SortSpec | None = None
    ovcs: tuple[OVC, ...] | None = None

    def __post_init__(self) -> None:
        put = object.__setattr__
        put(self, "rows", tuple(self.rows))
        if self.ovcs is not None:
            put(self, "ovcs", tuple(self.ovcs))
            if len(self.ovcs) != len(self.rows):
                raise ValueError(
                    f"{len(self.ovcs)} ovcs for {len(self.rows)} rows"
                )
        if self.sort_spec is not None:
            for name in self.sort_spec.names:
                if name not in self.schema:
                    raise KeyError(f"sort column {name!r} not in schema")
        put(self, "_memo", _Facts())
        put(self, "_code_memo", None)
        put(self, "_coded", None)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def _facts(self) -> _Facts:
        """The memo record of this table's rows."""
        return self._memo

    def _codes(self):
        """The :class:`~repro.core.classify.CodeFacts` record of this
        table's codes (``ovcs`` set), built on first use."""
        memo = self._code_memo
        if memo is None:
            from .core.classify import CodeFacts

            memo = CodeFacts(self.ovcs)
            object.__setattr__(self, "_code_memo", memo)
        return memo

    def column(self, name: str) -> list:
        p = self.schema.index_of(name)
        return [row[p] for row in self.rows]

    def with_ovcs(self) -> "Table":
        """This table if it carries offset-value codes, else this table
        with codes derived from its sort order: built once and kept on
        this table, so every call returns the same coded table (and its
        one code record).  It shares this table's row record: both have
        the same rows."""
        if self.ovcs is not None:
            return self
        coded = self._coded
        if coded is None:
            from .ovc.derive import derive_table_ovcs

            coded = replace(self, ovcs=derive_table_ovcs(self))
            object.__setattr__(coded, "_memo", self._memo)
            object.__setattr__(self, "_coded", coded)
        return coded

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
