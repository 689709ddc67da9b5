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
it just shares the leader's result).  The
entry leaves the registry the moment its result is published, so a
request arriving after completion starts a fresh execution — which the
order cache, not the registry, is then free to serve cheaply.
"""

from __future__ import annotations

import threading

from .request import Inflight


class InflightRegistry:
    """Thread-safe map of in-flight executions, keyed by content+order."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict[tuple, Inflight] = {}

    def attach_or_create(
        self, key: tuple, deadline_at: float | None, create
    ) -> tuple[Inflight, bool]:
        """Join the in-flight execution for ``key``, or start one.

        ``create`` is a zero-argument factory building the new
        :class:`Inflight` (called under the lock, so creation and
        registration are atomic against concurrent duplicates).
        Returns ``(entry, created)``: ``created=False`` means the
        caller was coalesced onto an existing execution.
        """
        with self._lock:
            entry = self._inflight.get(key)
            if entry is not None:
                entry.add_waiter(deadline_at)
                return entry, False
            entry = create()
            self._inflight[key] = entry
            return entry, True

    def remove(self, key: tuple) -> None:
        """Retire an entry (idempotent); new duplicates then re-execute."""
        with self._lock:
            self._inflight.pop(key, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._inflight)
