"""Order enforcement: passthrough, modify, or sort from scratch.

:func:`enforce_order` is the one place that decides how a materialized
input reaches a required sort order — pass through when its order
already satisfies the request, :func:`~repro.core.modify.
modify_sort_order` when it is ordered otherwise, a full sort when it is
unordered — and on which engine (:func:`~repro.core.modify.
resolve_engine`).  The full sort is :func:`~repro.core.external_modify.
external_sort` on the executor :func:`~repro.core.modify.bind_strategy`
binds (packed-code kernels, or the tournament sort on ``auto``'s
fallback and under the reference engine).  The ``Sort`` operator and
the cache dispatcher enforce orders through here (the batch planner and
the service run ``Sort``), so none of them chooses an engine or a sort
routine itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exec.config import ExecutionConfig
from ..model import SortSpec, Table
from ..obs import TRACER
from ..ovc.derive import project_ovcs
from ..ovc.stats import ComparisonStats
from ..storage.pages import PageManager
from .external_modify import external_sort
from .modify import _modify_sort_order, resolve_engine


@dataclass(frozen=True)
class Enforced:
    """What :func:`enforce_order` produced, and how."""

    table: Table
    #: ``passthrough`` | ``modify_sort_order`` | ``internal_sort`` |
    #: ``external_sort`` (``Sort.executed`` adds ``external_modify`` and
    #: ``cache``).
    executed: str
    #: EXPLAIN label: ``passthrough`` | ``modify(<input order>)`` |
    #: ``full-sort`` | ``external-sort``.
    strategy: str
    #: The engine that ran, ``fast`` | ``reference`` (``None``: nothing ran).
    engine: str | None = None
    #: ``auto`` met keys the key packer cannot rank; reference ran.
    fallback: bool = False
    #: ``table.rows`` as indices into the source's rows, when asked for
    #: (``want_perm``) and a fast kernel produced the output.
    perm: list[int] | None = None


def enforce_order(
    source: Table,
    spec: SortSpec,
    *,
    stats: ComparisonStats,
    config: ExecutionConfig,
    method: str = "auto",
    use_ovc: bool = True,
    want_perm: bool = False,
    memory_capacity: int | None = None,
    fan_in: int = 16,
    pages: PageManager | None = None,
) -> Enforced:
    """Produce ``source``'s rows in ``spec`` order, the cheapest way.

    ``source.sort_spec`` (``None`` = unordered) picks the path; an
    ordered source without codes runs without them.  ``stats`` receives
    the comparisons *this* call makes whenever the reference engine
    runs — under ``engine="auto"`` that is only with ``use_ovc`` off or
    a fan-in cap, so callers that want counters pass
    ``engine="reference"``.  A caller that answers from the order cache
    instead never calls this and counts nothing.
    ``method`` forces a modification strategy (ordered sources only).
    A forced ``engine="fast"`` propagates the key packer's ``TypeError``.
    ``want_perm`` asks the fast kernels for the permutation they sorted
    through (callers that will install the result in the order cache;
    nobody else pays for it).
    ``memory_capacity`` (rows) bounds an unordered input's sort: past
    it, runs spill to ``pages`` and merge ``fan_in`` at a time
    (``external-sort``).  An ordered input is modified in memory here;
    ``Sort`` bounds a forward-planned one with
    :class:`~repro.core.external_modify.SegmentLoop` instead.
    """
    src_spec = source.sort_spec
    if src_spec is not None and src_spec.satisfies(spec):
        ovcs = None
        if source.ovcs is not None:
            ovcs = project_ovcs(source.ovcs, spec.arity)
        table = Table(source.schema, source.rows, spec, ovcs)
        return Enforced(
            table, "passthrough", "passthrough",
            perm=list(range(len(table.rows))) if want_perm else None,
        )

    use_ovc = use_ovc and (src_spec is None or source.ovcs is not None)
    engine = resolve_engine(config, use_ovc=use_ovc)
    perm: list[int] | None = [] if want_perm else None
    if src_spec is not None:
        # A stats collector is itself a request for the reference
        # engine, so it is handed over only when that engine was chosen.
        table, engine, fallback = _modify_sort_order(
            source, spec, method, use_ovc,
            stats if engine == "reference" else None, config, perm,
        )
        label = f"modify({src_spec.label})"
        return Enforced(
            table, "modify_sort_order", label, engine, fallback,
            _whole(perm, table),
        )

    n = len(source.rows)
    capacity = max(n, 1) if memory_capacity is None else memory_capacity
    with TRACER.span("modify.full_sort", rows=n, segments=1) as sp:
        rows, ovcs, engine, fallback = external_sort(
            source, spec, capacity, fan_in,
            pages if pages is not None else PageManager(), engine=engine,
            stats=stats, use_ovc=use_ovc, forced=config.engine == "fast",
            perm=perm,
        )
        sp.set(engine=engine, fallback=fallback, runs=-(-n // capacity))
    table = Table(source.schema, rows, spec, ovcs)
    executed = "external_sort" if n > capacity else "internal_sort"
    label = "external-sort" if n > capacity else "full-sort"
    return Enforced(table, executed, label, engine, fallback, _whole(perm, table))


def _whole(perm: list[int] | None, table: Table) -> list[int] | None:
    """``perm`` if a kernel filled it for every output row, else ``None``
    (not asked for, or the reference engine ran)."""
    return perm if perm is not None and len(perm) == len(table.rows) else None
