"""Byte ledgers: what a long-lived holder of rows has resident.

A :class:`MemoryAccountant` is charged, in bytes, by an owner that keeps
rows alive across requests and answers one question for it:
:meth:`MemoryAccountant.over_budget`.  There are two, each created and
held by its owner: the order cache's (:class:`repro.cache.store.
OrderCache`, budgeted by ``cache_budget``) and the order service's
in-flight ledger (:class:`repro.serve.OrderService`, unbudgeted).
Charging is bookkeeping only; the *reaction* (dropping memos, spilling
or evicting cold entries) lives with the owner, so the accountant never
drops data.

:func:`rows_nbytes` is the size model both use.
"""

from __future__ import annotations

from ..obs import LOG, METRICS


class MemoryAccountant:
    """Byte-granular budget ledger with per-category attribution.

    ``budget`` is the owner's byte budget (``None`` = unlimited:
    charges are tracked but :meth:`over_budget` never fires).
    Categories are free-form dotted names (``"cache.entries"``,
    ``"serve.inflight"``); they exist for attribution in metrics and
    tests, not for separate sub-budgets.
    """

    __slots__ = ("budget", "used", "peak", "by_category", "_over")

    def __init__(self, budget: int | None) -> None:
        if budget is not None and budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        self.budget = budget
        self.used = 0
        self.peak = 0
        self.by_category: dict[str, int] = {}
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "unlimited" if self.budget is None else f"{self.budget:,}B"
        return (
            f"MemoryAccountant(used={self.used:,}B, peak={self.peak:,}B, "
            f"budget={cap})"
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
