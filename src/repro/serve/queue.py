"""Bounded admission queue with per-tenant fair dequeuing.

The service's backpressure point.  Two properties matter:

* **Bounded** — at most ``depth`` pending executions; :meth:`AdmissionQueue.put`
  refuses (returns ``False``) when full, and the service turns that
  refusal into :class:`~repro.serve.ServiceOverloadError`.  Nothing in
  the serving layer ever buffers an unbounded number of requests.
* **Tenant-fair** — dequeuing round-robins over the tenants that have
  pending work, so one chatty tenant can fill its own backlog but
  cannot starve another tenant's single request behind it.  Within a
  tenant, order is FIFO.

The queue stores opaque items (the service's in-flight entries); it
knows nothing about coalescing.  Behind its one condition variable it
also keeps the service's execution slots and an unbounded lane of
handed-off tasks, which a slot-taking ``get`` returns before any item.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Any


class AdmissionQueue:
    """A depth-bounded multi-tenant FIFO with round-robin dequeue."""

    def __init__(self, depth: int, slots: int = 1) -> None:
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {depth}")
        self.depth = depth
        self._cond = threading.Condition()
        #: tenant -> FIFO of pending items; key order is the round-robin
        #: rotation (the front tenant serves next).
        self._tenants: "OrderedDict[str, deque]" = OrderedDict()
        self._size = 0
        self._closed = False
        self._free = slots
        self._handoffs: deque = deque()

    def put(self, item: Any, tenant: str) -> bool:
        """Enqueue ``item`` for ``tenant``; ``False`` when full or closed.

        Never blocks: admission control means rejecting at the door,
        not making the caller wait for space.
        """
        with self._cond:
            if self._closed or self._size >= self.depth:
                return False
            pending = self._tenants.get(tenant)
            if pending is None:
                pending = self._tenants[tenant] = deque()
            pending.append(item)
            self._size += 1
            self._cond.notify()
            return True

    def hand_off(self, task: Any) -> bool:
        """Queue ``task`` ahead of every item, unbounded; ``False``
        once closed."""
        with self._cond:
            if self._closed:
                return False
            self._handoffs.append(task)
            self._cond.notify()
            return True

    def claim(self) -> bool:
        """Take a free execution slot not owed to a queued item, without
        waiting; ``False`` when there is none or the queue is closed."""
        with self._cond:
            if self._closed or self._free <= self._size:
                return False
            self._free -= 1
            return True

    def release(self) -> None:
        """Give back a slot taken by :meth:`claim` or ``get(slot=True)``."""
        with self._cond:
            self._free += 1
            self._cond.notify()

    def get(self, timeout: float | None = None,
            slot: bool = False) -> Any | None:
        """Dequeue the next item fairly; ``None`` on timeout, or once
        closed and empty.  With ``slot``, handed-off tasks come first,
        and an item comes only with a free slot, which the caller takes.

        Pops from the front tenant of the rotation and moves that
        tenant to the back (if it still has pending work), so K tenants
        with backlogs are served 1/K each regardless of arrival rates.
        ``timeout`` bounds the whole call: a getter that is woken only
        to find the item already taken by another consumer waits for
        what is left of it, not for all of it again.
        """
        def ready() -> bool:
            return bool(slot and self._handoffs
                        or self._size and (self._free or not slot))

        with self._cond:
            self._cond.wait_for(
                lambda: ready() or self._closed and not self._size, timeout
            )
            if not ready():
                return None
            if slot and self._handoffs:
                return self._handoffs.popleft()
            if slot:
                self._free -= 1
            tenant, pending = next(iter(self._tenants.items()))
            item = pending.popleft()
            if pending:
                self._tenants.move_to_end(tenant)
            else:
                del self._tenants[tenant]
            self._size -= 1
            return item

    def close(self) -> None:
        """Refuse new work and wake every blocked :meth:`get`."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        with self._cond:
            return self._size

    def tenants(self) -> list[str]:
        """Tenants with pending work, in current rotation order."""
        with self._cond:
            return list(self._tenants)
