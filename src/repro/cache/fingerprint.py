"""Content fingerprints: the order cache's keying scheme.

A cache that answers "I have already sorted *this data* on *that
order*" needs a key naming the data independently of how it happens to
be arranged right now — the whole point is that one multiset of rows,
cached sorted on order A, can serve a request for order B.  The
fingerprint is therefore **order-insensitive**: a commutative combine
(count, sum, xor) of per-row hashes, so every permutation of the same
rows maps to the same :attr:`Fingerprint.source_key`.

Ties need one more bit of information.  Sorting here is stable, so
rows *equal under the whole sort key* leave a sort in their arrival
order — an output containing such duplicates is a function of the
input's *sequence*, not just its multiset.  The fingerprint carries an
order-sensitive :attr:`Fingerprint.sequence` hash alongside the
content key; the store uses it to decide when a cached output with
duplicates may be reused verbatim, and the dispatcher re-breaks ties
against the live input sequence otherwise (see
:mod:`repro.cache.dispatch`).

Hashes are Python ``hash()`` values: stable within a process, which is
exactly the cache's lifetime (it never persists fingerprints).

A fingerprint is one O(n) pass over the rows, and the service, the
cache dispatcher and the batch planner all ask for the same table's:
:func:`fingerprint_table` therefore keeps its answer on the
:class:`~repro.model.Table` and recomputes only when the table's row
sequence no longer compares equal to the one it hashed (see
:meth:`repro.model.Table._facts` — an exact check, so an edited table
is never served from a stale key).  Passes actually run are counted as
``cache.fingerprint_passes``; under repeat traffic it stays flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..model import Table
from ..obs import METRICS

_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Fingerprint:
    """Identity of one row multiset (plus its current arrangement).

    ``schema`` / ``n_rows`` / ``content_sum`` / ``content_xor`` are
    order-insensitive and form :attr:`source_key`; ``sequence`` hashes
    the actual row sequence and only matters for outputs containing
    full-key duplicates.
    """

    schema: tuple[str, ...]
    n_rows: int
    content_sum: int
    content_xor: int
    sequence: int

    @property
    def source_key(self) -> tuple:
        """The order-insensitive cache key for this row multiset."""
        return (self.schema, self.n_rows, self.content_sum, self.content_xor)


def fingerprint_rows(
    rows: Sequence[tuple], schema_columns: tuple[str, ...]
) -> Fingerprint:
    """Fingerprint a row sequence (one pass, two hashes per row)."""
    if METRICS.enabled:
        METRICS.counter("cache.fingerprint_passes").inc()
    total = 0
    xor = 0
    seq = len(rows)
    for row in rows:
        h = hash(row) & _MASK
        total = (total + h) & _MASK
        xor ^= h
        seq = hash((seq, h))
    return Fingerprint(schema_columns, len(rows), total, xor, seq)


def fingerprint_table(table: Table) -> Fingerprint:
    """Fingerprint a table's rows (sort order deliberately ignored).

    Memoized on the table: the pass runs once per distinct row
    sequence, and again after any edit that changes it.
    """
    facts = table._facts()
    if facts.fingerprint is None:
        facts.fingerprint = fingerprint_rows(facts.rows, facts.schema.columns)
    return facts.fingerprint
