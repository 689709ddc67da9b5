"""The order cache's store: a thread-safe LRU map of sorted orders.

One entry is one previously produced sort order of one row *sequence*,
keyed by that sequence's fingerprint plus the :class:`~repro.model.
SortSpec` that was enforced.  A stable sort's output is a permutation of
its input, so an entry does not keep the rows: it keeps

* ``perm`` — output position -> index into the source sequence, in the
  narrowest unsigned ``array`` that holds ``n``;
* a *code book* of the offset-value codes (:func:`_code_book`): the
  distinct codes as two small word arrays ``offsets`` / ``values``
  (:func:`repro.fastpath.packed.pack_codes`) and one id into them per
  row, ``ids``: ``bytes`` for a book of at most 256 codes, else the
  narrowest unsigned word array.  An order of 4 096
  rows has about a hundred distinct codes (18 on heavy ties).  When a
  code value is not a machine-word ``int`` (strings, ``None``, floats,
  bools, big ints) there is no book: ``ids`` is ``None`` and
  ``offsets`` / ``values`` hold one code per row, ``values`` a plain
  list (counted as ``cache.unpacked_installs``);

3-13 bytes a row (3.05 on the benchmark's orders at 2^12).  The
:class:`~repro.model.Table` readers are handed is a *memo* of that
form — its rows one :func:`~repro.fastpath.packed.gather` through
``perm`` over the rows the request's fingerprint hashed, its codes one
through ``ids`` over the book's tuples, each code built once — made
once, with the entry's :class:`CachedOrder` read around it, kept while
the budget has room and dropped for free when it has not.  An entry is
therefore in one of three states: ``memo`` (arrays and the read: a read
hands it out as is and builds nothing), ``flat`` (arrays: a read
gathers a new table outside the lock, ~0.28 ms at 2^12 on one thread)
or ``spilled`` (a spill file: one small unpickle, then as ``flat``).

The store is deliberately dumb about *how* entries get used: exact-hit
serving, candidate selection, and the modify-from-cached-order dispatch
all live in :mod:`repro.cache.dispatch`; here live the mechanics every
policy shares:

* **Thread safety** — one re-entrant lock around every map operation
  and the look at an entry's (immutable) arrays; the two gathers of a
  flat read run outside it, on the arrays it took, so a concurrent
  spill or eviction can never tear a read.
* **Memory accounting** — an entry's fixed overhead
  (:data:`ENTRY_BYTES`), its flat bytes while they are resident and its
  memo's while it has one are charged to a :class:`~repro.exec.memory.
  MemoryAccountant` (category ``cache.entries``); exceeding the budget
  triggers the pressure loop.
* **Pressure** — memos are released first, least recently used first;
  only when the flat forms alone exceed the budget are those written
  through a :class:`~repro.exec.spill.SpillManager` (``perm``, ``ids``
  and the book's two arrays, not a tuple per row) and rehydrated
  bit-identically by a later read.  ``spills`` / ``rehydrates`` count
  disk writes / reads; a memo drop is neither.

An entry never goes stale — its key names the exact row sequence it
permutes — so entries have no lifetime: the budget bounds memory, and
:meth:`OrderCache.invalidate` drops entries on request.

Counters (``hits``, ``misses``, ``installs``, ``evictions``,
``spills``, ``rehydrates``) are maintained under the same lock, so
``hits + misses`` always equals the number of exact lookups (less the
misses of uncounted probes, :meth:`OrderCache.lookup`) — the
monotonic-consistency property the concurrency tests pin down.
Re-installing a key replaces its entry and is not an eviction.  When
the global metrics registry is enabled the same events are published
under ``cache.*`` names.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict, defaultdict, deque
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple, Sequence

from ..exec.memory import MemoryAccountant
from ..exec.spill import SpillHandle, SpillManager
from ..fastpath.packed import _word_array, gather, pack_codes, unpack_codes
from ..model import Schema, SortSpec, Table
from ..obs import METRICS
from .fingerprint import Fingerprint

#: Accounting category for resident entry bytes.
CATEGORY = "cache.entries"

#: Charged for every entry while it exists, whatever its state: the
#: entry object, its array headers, its counters and its slots in the
#: four maps (measured 1.1 KB an entry).  Next to nothing at 2^12 rows,
#: most of an entry at 2^8.
ENTRY_BYTES = 1024


class CachedOrder(NamedTuple):
    """One read of a cache entry.

    ``table`` is the order as a :class:`~repro.model.Table`: the
    entry's memo table while it has one, handed out as is — every memo
    read returns the entry's one ``CachedOrder``, so a memo hit builds
    nothing — else built by the read from the flat form; ``None`` only
    in the metadata-only snapshots of :meth:`OrderCache.candidates`.
    ``perm`` maps output position to source index.
    ``offset_counts[k]`` is the number of codes with offset exactly
    ``k`` (length ``arity + 1``), from which the dispatcher derives
    segment and run counts without rescanning.
    """

    spec: SortSpec
    table: Table | None
    perm: array | None
    offset_counts: tuple
    #: ``memo`` | ``flat`` | ``spilled`` — what the read found.
    state: str
    #: Bytes the entry had charged to the budget at that moment.
    nbytes: int


class _Entry:
    """One stored order; hashable by identity (the LRU orders key on it)."""

    __slots__ = (
        "key", "spec", "perm", "codes", "memo", "offset_counts",
        "flat_bytes", "memo_bytes", "handle",
    )

    def __init__(self, key, spec, perm, codes, offset_counts,
                 flat_bytes, memo_bytes) -> None:
        self.key = key
        self.spec = spec
        #: The flat form (``None`` while spilled); never mutated.
        self.perm = perm
        #: The code book, ``(ids, offsets, values)`` (:func:`_code_book`).
        self.codes = codes
        #: The read a memo hit returns (``None`` when dropped).
        self.memo: CachedOrder | None = None
        self.offset_counts = offset_counts
        self.flat_bytes = flat_bytes
        self.memo_bytes = memo_bytes
        #: Spill handle while the flat form is on disk.
        self.handle: SpillHandle | None = None

    @property
    def state(self) -> str:
        if self.memo is not None:
            return "memo"
        return "flat" if self.perm is not None else "spilled"

    @property
    def charged(self) -> int:
        return (
            ENTRY_BYTES
            + (self.flat_bytes if self.perm is not None else 0)
            + (self.memo_bytes if self.memo is not None else 0)
        )


def _code_book(ovcs: list) -> tuple:
    """``ovcs`` as a code book ``(ids, offsets, values)``.

    ``offsets[k]`` / ``values[k]`` is the ``k``-th distinct code, packed
    by :func:`pack_codes`, and ``ids[i]`` is row ``i``'s ``k``: ``bytes``
    when the book holds at most 256 codes, else the narrowest word
    array.  ``(d, 1)``, ``(d, 1.0)`` and ``(d, True)`` are equal and
    hash alike, so codes are merged only when *every* value, not just
    every distinct one, is a plain ``int``.  Otherwise, and past 64
    bits, ``ids`` is ``None`` and the book holds every row's code: an
    offsets array and a value list.
    """
    if set(map(type, map(itemgetter(1), ovcs))) <= {int}:
        # One hashing pass: map pulls len(index) before each setdefault,
        # so a new code gets the next id and a known one its own.
        index: dict = {}
        ids = list(map(index.setdefault, ovcs, map(len, repeat(index))))
        try:
            offsets, values = pack_codes(list(index))
        except (TypeError, OverflowError):
            pass
        else:
            # bytes(ids) is one C pass, a third of array("B", ids).
            ids = bytes(ids) if len(index) <= 256 else _word_array(ids)
            return ids, offsets, values
    offsets = _word_array(list(map(itemgetter(0), ovcs)))
    return None, offsets, list(map(itemgetter(1), ovcs))


def _codes(ids, offsets, values) -> tuple[tuple, ...]:
    """The ``(offset, value)`` tuples of a code book: every distinct
    code is built once and each row gets a reference to it."""
    book = unpack_codes(offsets, values)
    return book if ids is None else gather(book, ids)


def _offset_counts(ids, offsets, arity: int) -> tuple:
    """Per-offset code counts of a code book (offsets past the arity
    fold into it): row ``i``'s offset is ``offsets[ids[i]]``, or
    ``offsets[i]`` when ``ids`` is ``None``."""
    if ids is None:
        cells = offsets
    elif type(ids) is bytes and arity < 256:
        # One C-level pass turns every id byte into its code's offset.
        clamped = bytes(min(off, arity) for off in offsets)
        cells = ids.translate(clamped.ljust(256, b"\0"))
    else:
        cells = array(offsets.typecode, gather(offsets, ids))
    if isinstance(cells, array) and cells.itemsize == 1 and arity <= 256:
        # bytes.count is a memchr; array.count boxes every cell.
        cells = cells.tobytes()
    head = [cells.count(k) for k in range(arity)]
    return (*head, len(cells) - sum(head))


def _perm_of(source, rows) -> Sequence[int]:
    """``rows`` as indices into ``source``.

    A sort moves references, so the rows are normally the source's own
    tuple objects and matching them by identity is exact (and hashes no
    row).  Rows that are equal but other objects (unpickled from a
    spill, rebuilt by the caller) are matched by value, equal rows in
    arrival order — where a stable sort leaves them.  Raises
    ``LookupError`` when ``rows`` holds a row ``source`` does not.
    """
    where = dict(zip(map(id, source), range(len(source))))
    if len(where) == len(source):
        try:
            return gather(where, list(map(id, rows)))
        except KeyError:
            pass
    slots: dict = defaultdict(deque)
    for i, row in enumerate(source):
        slots[row].append(i)
    return [slots[row].popleft() for row in rows]


class OrderCache:
    """In-process cache of sorted outputs, LRU + budget-governed.

    Parameters
    ----------
    budget:
        Resident-byte budget over flat forms and memos (``parse_memory``
        already applied by the config layer; here an int or ``None``
        for unlimited).
    spill_dir:
        Parent directory for the spill manager (system temp when
        ``None``).

    A memo hit hands out the entry's own memo table, so what a caller
    computes on it (``modify_sort_order(resp.table, ...)``) keeps its
    per-table records there, uncharged: the packed key fields, at most
    8 B a row per column, and the code record, 1 B a row of offsets
    plus, per head boundary and per prefix length asked about (at most
    ``arity + 1`` of each), at most 36 B a listed head and 120 B a
    segment, and a merge order's chunks, at most 60 B a head.  At 2^12
    rows of a 4-column key, every 1- to 4-column order in both
    directions on both engines left 16 B a row of fields and 139-163 B
    a row of code record, beside the 48 B a row the memo is charged.
    The records live as long as the memo table: dropping the memo
    frees them unless the caller still holds the table.
    """

    def __init__(
        self,
        budget: int | None = None,
        spill_dir: str | None = None,
    ) -> None:
        self._lock = threading.RLock()
        self._entries: dict[tuple, _Entry] = {}
        # Least recently used first: every entry, the ones holding a
        # memo, the ones whose flat form is resident.  Keyed by entry
        # (identity hash), so walking one never hashes a SortSpec.
        self._lru: "OrderedDict[_Entry, None]" = OrderedDict()
        self._memos: "OrderedDict[_Entry, None]" = OrderedDict()
        self._flats: "OrderedDict[_Entry, None]" = OrderedDict()
        self.accountant = MemoryAccountant(budget)
        self._spill_dir = spill_dir
        self._spill: SpillManager | None = None
        # Event counters (all mutated under the lock).
        self.hits = 0
        self.misses = 0
        self.installs = 0
        self.evictions = 0
        self.spills = 0
        self.rehydrates = 0
        self.rejected = 0

    # ----------------------------------------------------------- helpers

    def _spill_manager(self) -> SpillManager:
        if self._spill is None:
            self._spill = SpillManager(self._spill_dir)
        return self._spill

    def _publish_levels(self) -> None:
        if METRICS.enabled:
            METRICS.gauge("cache.bytes_resident").set(self.accountant.used)
            METRICS.gauge("cache.entries").set(len(self._entries))

    def _count(self, name: str) -> None:
        if METRICS.enabled:
            METRICS.counter("cache." + name).inc()

    def _keep_memo(self, entry: _Entry, table: Table) -> None:
        """Make ``table`` the entry's memo, read by every hit (lock held)."""
        entry.memo = CachedOrder(
            entry.spec, table, entry.perm, entry.offset_counts, "memo",
            ENTRY_BYTES + entry.flat_bytes + entry.memo_bytes,
        )
        self._memos[entry] = None
        self.accountant.charge(CATEGORY, entry.memo_bytes)

    def _drop_memo(self, entry: _Entry) -> None:
        """Release an entry's memo table (lock held)."""
        del self._memos[entry]
        entry.memo = None
        self.accountant.release(CATEGORY, entry.memo_bytes)

    def _drop_flat(self, entry: _Entry) -> None:
        """Release a memo-less entry's arrays (lock held)."""
        del self._flats[entry]
        entry.perm = entry.codes = None
        self.accountant.release(CATEGORY, entry.flat_bytes)

    def _drop(self, entry: _Entry, reason: str) -> None:
        """Remove one entry entirely (lock held); ``reason`` is
        ``"evicted"`` or ``"replaced"`` (not counted)."""
        del self._entries[entry.key, entry.spec]
        del self._lru[entry]
        self.accountant.release(CATEGORY, ENTRY_BYTES)
        if entry.memo is not None:
            self._drop_memo(entry)
        if entry.perm is not None:
            self._drop_flat(entry)
        if entry.handle is not None:
            entry.handle.release()
            entry.handle = None
        if reason == "evicted":
            self.evictions += 1
            self._count("evictions")
        self._publish_levels()

    def _spill_entry(self, entry: _Entry) -> None:
        """Write a memo-less entry's arrays out and release them (lock
        held)."""
        entry.handle = self._spill_manager().spill(
            entry.perm, entry.codes, category="cache"
        )
        self._drop_flat(entry)
        self.spills += 1
        self._count("spills")

    def _rehydrate(self, entry: _Entry) -> None:
        """Load a spilled entry's arrays back in (lock held)."""
        entry.perm, entry.codes = entry.handle.read()
        entry.handle.release()
        entry.handle = None
        self._flats[entry] = None
        self.accountant.charge(CATEGORY, entry.flat_bytes)
        self.rehydrates += 1
        self._count("rehydrates")

    def _pressure(self, protect: _Entry | None = None) -> None:
        """Get back under budget (lock held): release memos, least
        recently used first, and only then spill flat forms, likewise.  ``protect`` — the entry being read or installed, the
        most recently used one — keeps its flat form."""
        over = self.accountant.over_budget
        while self._memos and over():
            self._drop_memo(next(iter(self._memos)))
        while self._flats and over():
            victim = next(iter(self._flats))
            if victim is protect:
                break  # nothing older is left
            self._spill_entry(victim)
        self._publish_levels()

    # ------------------------------------------------------------- reads

    def _read(
        self, fp: Fingerprint, spec: SortSpec, hits: bool, misses: bool
    ) -> CachedOrder | None:
        """The stored order for ``(fp, spec)`` with its table built.

        ``hits`` / ``misses``: whether a found / absent entry counts as
        a lookup's hit / miss.  A memo entry's read is handed out as it
        is.  Otherwise, under the lock: the map operations, the
        rehydrate of a spilled entry and a look at its arrays; the two
        gathers of the flat form run outside it, over the rows ``fp``
        hashed, and the table they make is kept as the entry's memo
        only if the budget has room for it as it stands — a memo is
        never worth a disk write.
        """
        with self._lock:
            entry = self._entries.get((fp.source_key, spec))
            if entry is None:
                if misses:
                    self.misses += 1
                    self._count("misses")
                return None
            if hits:
                self.hits += 1
                self._count("hits")
            self._lru.move_to_end(entry)
            memo = entry.memo
            if memo is not None:
                # A memo read charges nothing: no pressure to relieve.
                self._flats.move_to_end(entry)
                self._memos.move_to_end(entry)
                return memo
            state, nbytes = entry.state, entry.charged
            if entry.perm is None:
                self._rehydrate(entry)
            self._flats.move_to_end(entry)
            perm, codes = entry.perm, entry.codes
            self._pressure(protect=entry)
        table = Table(
            Schema(fp.schema), gather(fp.rows, perm), spec, _codes(*codes)
        )
        with self._lock:
            headroom = self.accountant.headroom()
            if (
                entry.perm is not None and entry.memo is None
                and (headroom is None or entry.memo_bytes <= headroom)
            ):
                self._keep_memo(entry, table)
                self._publish_levels()
        return CachedOrder(
            spec, table, perm, entry.offset_counts, state, nbytes
        )

    def lookup(
        self, fp: Fingerprint, spec: SortSpec, *, count_miss: bool = True
    ) -> CachedOrder | None:
        """Exact lookup: the requested order of this row sequence.

        An entry is a permutation of one row sequence, and
        ``fp.source_key`` names the sequence: the same rows in another
        arrangement are another source, and a miss.  Every call counts
        as one hit or one miss — except a miss with ``count_miss=False``,
        which counts nothing: a probe whose request, on a miss, goes on
        to a counted lookup of its own, so that each request still
        counts exactly one outcome.  A memo hit returns the entry's own
        read, the same object every time.
        """
        return self._read(fp, spec, hits=True, misses=count_miss)

    def candidates(
        self, fp: Fingerprint, exclude: SortSpec | None = None
    ) -> list[CachedOrder]:
        """Every order cached for this row sequence.

        Metadata-only snapshots for cost estimation: nothing is
        rehydrated or gathered (``table`` is ``None`` unless the entry
        holds a memo); call :meth:`fetch` once a candidate is chosen.
        """
        with self._lock:
            return [
                entry.memo or CachedOrder(
                    spec, None, entry.perm, entry.offset_counts,
                    entry.state, entry.charged,
                )
                for (src, spec), entry in self._entries.items()
                if src == fp.source_key and spec != exclude
            ]

    def fetch(self, fp: Fingerprint, spec: SortSpec) -> CachedOrder | None:
        """Materialize one order for use as a modify source (LRU touch,
        rehydrating and gathering as needed; no hit/miss accounting)."""
        return self._read(fp, spec, hits=False, misses=False)

    # ------------------------------------------------------------ writes

    def install(
        self,
        fp: Fingerprint,
        spec: SortSpec,
        rows: tuple,
        ovcs: tuple,
        stats_delta=None,
        perm=None,
    ) -> bool:
        """Insert (or refresh) the sorted output for ``(fp, spec)``.

        ``rows`` must be a permutation of the rows ``fp`` hashed.
        ``perm`` is that permutation (``rows[i] is fp.rows[perm[i]]``)
        when the caller has it — the fast kernels do — and is derived
        from the rows otherwise (:func:`_perm_of`).  ``rows`` / ``ovcs``
        become the entry's first memo, one :class:`~repro.model.Table`
        (tuples shared, not copied; a list is copied into a tuple),
        sized by the page model's fixed-width row: 8 bytes a column and
        16 a code.
        Returns False when the entry cannot be admitted (codes missing,
        or rows that are not the fingerprinted ones).

        ``stats_delta`` is accepted and ignored: an entry keeps no
        comparison counts (a hit makes no comparisons).  The parameter
        stays only because the frozen end-to-end benchmark passes one;
        it goes with that benchmark's repair (ROADMAP item 1).
        """
        n = len(rows)
        if ovcs is None or len(ovcs) != n:
            return False
        try:
            if perm is None:
                perm = _perm_of(fp.rows, rows)
            perm = _word_array(perm)
        except LookupError:
            return self._reject()
        table = Table(Schema(fp.schema), rows, spec, ovcs)
        ids, offsets, values = codes = _code_book(table.ovcs)
        if ids is None:
            self._count("unpacked_installs")
        value_size = values.itemsize if isinstance(values, array) else 8
        flat_bytes = (
            n * perm.itemsize
            + (0 if ids is None else memoryview(ids).nbytes)
            + len(offsets) * (offsets.itemsize + value_size)
        )
        memo_bytes = n * (8 * len(fp.schema) + 16)
        counts = _offset_counts(ids, offsets, spec.arity)
        key = (fp.source_key, spec)
        with self._lock:
            old = self._entries.get(key)
            if old is not None:
                self._drop(old, "replaced")
            entry = _Entry(
                fp.source_key, spec, perm, codes, counts, flat_bytes,
                memo_bytes,
            )
            self._entries[key] = entry
            self._lru[entry] = self._flats[entry] = None
            self.accountant.charge(CATEGORY, ENTRY_BYTES + flat_bytes)
            self._keep_memo(entry, table)
            self.installs += 1
            self._count("installs")
            self._pressure(protect=entry)
        return True

    def _reject(self) -> bool:
        with self._lock:
            self.rejected += 1
            self._count("rejected")
        return False

    def invalidate(self, source_key: tuple | None = None) -> int:
        """Drop every entry (or every entry of one source); returns the
        number removed."""
        with self._lock:
            doomed = [
                e for e in self._lru
                if source_key is None or e.key == source_key
            ]
            for entry in doomed:
                self._drop(entry, "evicted")
            return len(doomed)

    def close(self) -> None:
        """Invalidate everything and remove the spill directory."""
        with self._lock:
            self.invalidate()
            if self._spill is not None:
                self._spill.cleanup()
                self._spill = None

    def __enter__(self) -> "OrderCache":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------- inspection

    @property
    def bytes_resident(self) -> int:
        return self.accountant.used

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def counters(self) -> dict[str, int]:
        """Snapshot of the event counters (one consistent read)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "installs": self.installs,
                "evictions": self.evictions,
                "spills": self.spills,
                "rehydrates": self.rehydrates,
                "rejected": self.rejected,
                "entries": len(self._entries),
                "bytes_resident": self.accountant.used,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = self.counters()
        return (
            f"OrderCache(entries={c['entries']} "
            f"({len(self._memos)} memo, {len(self._flats)} flat), "
            f"resident={c['bytes_resident']:,}B, hits={c['hits']}, "
            f"misses={c['misses']}, spills={c['spills']})"
        )
