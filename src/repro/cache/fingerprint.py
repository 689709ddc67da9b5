"""Content fingerprints: the order cache's keying scheme.

A cache that answers "I have already sorted *this data* on *that
order*" needs a key naming the data.  What it stores of a sorted order
is a permutation — output position -> position in the source — and a
permutation means something only against the row *sequence* it was
taken from, so the fingerprint is **order-sensitive**: a chained hash
of the per-row hashes, in arrival order, plus the schema and the row
count (:attr:`Fingerprint.source_key`).  The same rows in another
arrangement are another source; a key over the row *multiset* would let
such a request reuse an entry by re-breaking its ties, a match no
request of the benchmark workloads ever made (EXPERIMENTS.md "What a
cache entry costs").

The fingerprint also carries the rows it hashed (:attr:`Fingerprint.
rows`, not part of its identity): a cached permutation is turned back
into rows by gathering through *them*.

Hashes are Python ``hash()`` values: stable within a process, which is
exactly the cache's lifetime (it never persists fingerprints).

A fingerprint is one O(n) pass over the rows, and the service, the
cache dispatcher and the batch planner all ask for the same table's:
:func:`fingerprint_table` therefore keeps its answer on the
:class:`~repro.model.Table` (:meth:`repro.model.Table._facts`): a table
never changes, so it is hashed once in its life.  Passes actually run
are counted as ``cache.fingerprint_passes``; under repeat traffic it
stays flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from ..model import Table
from ..obs import METRICS


@dataclass(frozen=True)
class Fingerprint:
    """Identity of one row sequence, and the sequence itself."""

    schema: tuple[str, ...]
    n_rows: int
    #: Chained hash of the row hashes in arrival order.
    sequence: int
    #: The rows that were hashed (excluded from ``==``).
    rows: tuple = field(compare=False, repr=False)

    @cached_property
    def source_key(self) -> tuple:
        """The cache key for this row sequence (built once)."""
        return (self.schema, self.n_rows, self.sequence)


def fingerprint_rows(
    rows: Sequence[tuple], schema_columns: tuple[str, ...]
) -> Fingerprint:
    """Fingerprint a row sequence (one pass, one hash per row); a
    tuple is kept as is, anything else copied into one."""
    if METRICS.enabled:
        METRICS.counter("cache.fingerprint_passes").inc()
    rows = tuple(rows)
    seq = len(rows)
    for h in map(hash, rows):
        seq = hash((seq, h))
    return Fingerprint(schema_columns, len(rows), seq, rows)


def fingerprint_table(table: Table) -> Fingerprint:
    """Fingerprint a table's rows (sort order deliberately ignored).

    Memoized on the table: the pass runs once per table, and the
    fingerprint holds the table's own row tuple.
    """
    facts = table._facts()
    if facts.fingerprint is None:
        facts.fingerprint = fingerprint_rows(table.rows, table.schema.columns)
    return facts.fingerprint
