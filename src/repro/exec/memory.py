"""Per-query memory accounting: the budget behind spill decisions.

A :class:`MemoryAccountant` is charged, in bytes, by everything that
buffers rows during a governed query — run generation, merge output
buffers, the fast path's packed-code arrays, the order cache, the
service's in-flight tables — and answers one question for all of them:
:meth:`MemoryAccountant.over_budget`.  Charging is bookkeeping only;
the *reaction* (spilling buffered runs, shrinking merge fan-in) lives
with whoever owns the memory, which keeps the accountant loss-free:
it never drops data, so governed runs stay bit-identical to
ungoverned ones.

The accountant reaches the executors the same way the tracer and the
metrics registry do — through a process-level current instance
(:func:`activate` / :func:`current`) — so deep call chains
(``merge_preexisting_runs``, the external sort's run generation) charge
without a parameter threaded through every signature.  Hot call sites
gate on ``current() is not None``; ungoverned runs pay one module
lookup and one ``is None`` check.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from ..obs import LOG, METRICS

#: The process's active accountant (``None`` outside governed queries).
_CURRENT: "MemoryAccountant | None" = None


def current() -> "MemoryAccountant | None":
    """The accountant governing the current query, if any."""
    return _CURRENT


@contextmanager
def activate(accountant: "MemoryAccountant | None") -> Iterator[None]:
    """Install ``accountant`` as the process's current one for a scope.

    Nested activations restore the outer accountant on exit; activating
    ``None`` is a no-op scope (so callers need no conditional).
    """
    global _CURRENT
    previous = _CURRENT
    if accountant is not None:
        _CURRENT = accountant
    try:
        yield
    finally:
        _CURRENT = previous


class MemoryAccountant:
    """Byte-granular budget ledger with per-category attribution.

    ``budget`` is the per-query byte budget (``None`` = unlimited:
    charges are tracked but :meth:`over_budget` never fires).
    Categories are free-form dotted names (``"modify.output"``,
    ``"extsort.runs"``, ``"fastpath.packed"``, ``"serve.inflight"``);
    they exist for attribution in metrics and tests, not for separate
    sub-budgets.
    """

    __slots__ = (
        "budget", "used", "peak", "by_category", "spill_count", "_over",
    )

    def __init__(self, budget: int | None) -> None:
        if budget is not None and budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        self.budget = budget
        self.used = 0
        self.peak = 0
        self.by_category: dict[str, int] = {}
        #: Spills triggered under this accountant (bumped by the owners
        #: of spilled memory, e.g. :class:`repro.exec.buffers.GovernedSink`).
        self.spill_count = 0
        #: Whether the last charge/release left us over budget — tracked
        #: so pressure *transitions* (not every over-budget charge) are
        #: observable.
        self._over = False

    # ---------------------------------------------------------- charging

    def charge(self, category: str, n_bytes: int) -> None:
        """Record ``n_bytes`` of live memory attributed to ``category``."""
        if n_bytes <= 0:
            return
        self.used += n_bytes
        self.by_category[category] = self.by_category.get(category, 0) + n_bytes
        if self.used > self.peak:
            self.peak = self.used
            if METRICS.enabled:
                METRICS.gauge("exec.mem.peak_bytes").set(self.peak)
        if METRICS.enabled:
            METRICS.counter("exec.mem.charged_bytes").inc(n_bytes)
            METRICS.gauge("exec.mem.used_bytes").set(self.used)
        if not self._over and self.over_budget():
            self._over = True
            if METRICS.enabled:
                METRICS.counter("exec.mem.pressure_events").inc()
            if LOG.enabled:
                LOG.event(
                    "exec.mem.pressure",
                    used_bytes=self.used,
                    budget_bytes=self.budget,
                    category=category,
                )

    def release(self, category: str, n_bytes: int) -> None:
        """Return ``n_bytes`` previously charged to ``category``."""
        if n_bytes <= 0:
            return
        self.used = max(0, self.used - n_bytes)
        held = self.by_category.get(category, 0)
        self.by_category[category] = max(0, held - n_bytes)
        if self._over and not self.over_budget():
            self._over = False
        if METRICS.enabled:
            METRICS.gauge("exec.mem.used_bytes").set(self.used)

    # ---------------------------------------------------------- verdicts

    def over_budget(self) -> bool:
        """True when live charges exceed the budget."""
        return self.budget is not None and self.used > self.budget

    def headroom(self) -> int | None:
        """Bytes left before the budget (``None`` when unlimited)."""
        if self.budget is None:
            return None
        return max(0, self.budget - self.used)

    def note_spill(self) -> None:
        """Record that a spill was triggered under this budget."""
        self.spill_count += 1
        if METRICS.enabled:
            METRICS.counter("exec.mem.spills").inc()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "unlimited" if self.budget is None else f"{self.budget:,}B"
        return (
            f"MemoryAccountant(used={self.used:,}B, peak={self.peak:,}B, "
            f"budget={cap}, spills={self.spill_count})"
        )


def rows_nbytes(rows, ovcs=None) -> int:
    """Accounting size of a row batch (plus optional codes).

    Uses the same per-row size model as the simulated page manager
    (:func:`repro.storage.pages.row_size_bytes`) so spill accounting and
    budget accounting agree; each offset-value code is charged 16 bytes
    (two machine words).
    """
    from ..storage.pages import row_size_bytes

    total = sum(row_size_bytes(r) for r in rows)
    if ovcs is not None:
        total += 16 * len(ovcs)
    return total


def _table_nbytes(table) -> int:
    """:func:`rows_nbytes` of a table's rows and codes, in O(1).

    The row bytes are measured once per distinct row sequence and kept
    on the table (:meth:`repro.model.Table._facts`); codes add 16 bytes
    each.
    """
    facts = table._facts()
    if facts.row_bytes is None:
        facts.row_bytes = rows_nbytes(facts.rows)
    coded = table.ovcs is not None
    return facts.row_bytes + (16 * len(facts.rows) if coded else 0)
