"""Request/response shapes of the order service.

An :class:`~repro.serve.OrderService` request is "enforce this sort
order on this table"; the response carries the sorted
:class:`~repro.model.Table` (rows *and* offset-value codes) and the
resolved order strategy of the :class:`~repro.engine.sort_op.Sort`
that produced it, plus serving metadata (was this request coalesced
onto another execution, how long did it wait).  Rows and codes
bit-identical to a serial uncached execution are the service's core
contract; the serving tests assert them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..model import SortSpec, Table


@dataclass
class OrderResponse:
    """One answered order request."""

    #: The sorted output (rows and offset-value codes), bit-identical
    #: to what a serial uncached execution would produce.
    table: Table
    #: The executed Sort's resolved strategy (``full-sort``,
    #: ``modify(...)``, ``cache-hit(...)``, ...).
    label: str | None
    #: True when this request rode on another request's execution.
    coalesced: bool
    #: Tenant the request was accounted to.
    tenant: str
    #: Submit-to-response wall-clock seconds for this request.
    latency_s: float


class Inflight:
    """One admitted execution and the waiters sharing it.

    Created by the service at admission, keyed in the in-flight
    registry by ``(source_key, spec)``.  The leader's execution fills
    :attr:`table` / :attr:`label` (or :attr:`error`) and sets
    :attr:`done`; every ticket then builds its own response from the
    shared result.  An execution that installs its output in the order
    cache does so after :attr:`done`: the entry is then *answered* but
    not yet installed, and stays in the registry until the install has
    run, when :attr:`retired` is set.  ``deadline_at`` is the *most
    generous* waiter deadline (``None`` once any waiter has no
    deadline): the scheduler skips execution only when nobody could
    still use the result.
    """

    __slots__ = (
        "key", "source", "spec", "tenant", "submitted_at", "deadline_at",
        "waiters", "done", "retired", "table", "label", "error", "inline",
    )

    def __init__(
        self,
        key: tuple,
        source: Table,
        spec: SortSpec,
        tenant: str,
        submitted_at: float,
        deadline_at: float | None,
    ) -> None:
        self.key = key
        self.source = source
        self.spec = spec
        self.tenant = tenant
        self.submitted_at = submitted_at
        self.deadline_at = deadline_at
        self.waiters = 1
        self.done = threading.Event()
        self.retired = threading.Event()
        self.table: Table | None = None
        self.label: str | None = None
        self.error: BaseException | None = None
        self.inline = False  # run on its leader's thread, not a scheduler's

    def add_waiter(self, deadline_at: float | None) -> None:
        """Attach one more request to this execution (registry lock held)."""
        self.waiters += 1
        if self.deadline_at is not None:
            self.deadline_at = (
                None if deadline_at is None
                else max(self.deadline_at, deadline_at)
            )

    def expired(self, now: float) -> bool:
        """True when no waiter could still use a result produced now."""
        return self.deadline_at is not None and now > self.deadline_at
