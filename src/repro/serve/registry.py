"""In-flight registry: duplicate-request coalescing.

The serving layer's work-sharing point.  Requests are keyed by the
order cache's content identity — the ``source_key`` of the row
*sequence* (stable sorts make tie-group output a function of arrival
order, so two requests share an execution only when their inputs are
arrangement-identical — that is what makes the fan-out bit-identical
for *every* waiter) — and the target :class:`~repro.model.SortSpec`.

A submit either *creates* the in-flight entry for its key (becoming
the leader whose dequeue executes the sort) or *attaches* to an
existing one (a coalesced waiter: zero queue slots, zero executions —
it just shares the leader's result).  An entry whose execution installs
nothing leaves the registry the moment its result is published.  With
the cache on, an executed order is published first and installed after:
the entry leaves the registry after its install, and a request that
finds it answered but not yet installed joins nothing — it waits for
the install and is answered by the order cache, like every request
arriving after completion.
"""

from __future__ import annotations

import threading

from .request import Inflight

#: :meth:`InflightRegistry.attach_or_create`'s answers.
CREATED, COALESCED, INSTALLING = "created", "coalesced", "installing"


class InflightRegistry:
    """Thread-safe map of in-flight executions, keyed by content+order."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict[tuple, Inflight] = {}

    def attach_or_create(
        self, key: tuple, deadline_at: float | None, create
    ) -> tuple[Inflight | None, str]:
        """Join the in-flight execution for ``key``, or start one.

        ``create`` is a zero-argument factory building the new
        :class:`Inflight` (called under the lock, so creation and
        registration are atomic against concurrent duplicates); it may
        return ``None`` when the request needs no execution after all.
        Returns ``(entry, how)``: ``CREATED`` for the factory's entry,
        ``COALESCED`` when the caller was attached to an existing
        execution, ``INSTALLING`` when that execution is already
        answered and installing (the caller is not attached: it waits
        on ``entry.retired``).
        """
        with self._lock:
            entry = self._inflight.get(key)
            if entry is None:
                entry = create()
                if entry is not None:
                    self._inflight[key] = entry
                return entry, CREATED
            if entry.done.is_set():
                return entry, INSTALLING
            entry.add_waiter(deadline_at)
            return entry, COALESCED

    def retire(self, entry: Inflight) -> None:
        """Remove an entry (idempotent) and set its ``retired`` event;
        new duplicates then re-execute or hit the cache."""
        with self._lock:
            if self._inflight.get(entry.key) is entry:
                del self._inflight[entry.key]
        entry.retired.set()

    def __len__(self) -> int:
        with self._lock:
            return len(self._inflight)
