"""Order enforcement: passthrough, modify, or sort from scratch.

:func:`enforce_order` is the one place that decides how a materialized
input reaches a required sort order — pass through when its order
already satisfies the request, :func:`~repro.core.modify.
modify_sort_order` when it is ordered otherwise, a full sort when it is
unordered — and on which engine (:func:`~repro.core.modify.
resolve_engine`, with ``auto``'s reference fallback on the key packer's
``TypeError``).  The ``Sort`` operator and the cache dispatcher enforce
orders through here (the batch planner and the service run ``Sort``),
so none of them chooses an engine or a sort routine itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exec.config import ExecutionConfig
from ..model import SortSpec, Table
from ..ovc.derive import project_ovcs
from ..ovc.stats import ComparisonStats
from ..sorting.internal import tournament_sort
from .modify import _modify_sort_order, resolve_engine


@dataclass(frozen=True)
class Enforced:
    """What :func:`enforce_order` produced, and how."""

    table: Table
    #: ``passthrough`` | ``modify_sort_order`` | ``internal_sort``
    #: (the vocabulary of ``Sort.executed``).
    executed: str
    #: EXPLAIN label: ``passthrough`` | ``modify(<input order>)`` |
    #: ``full-sort``.
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
    """
    src_spec = source.sort_spec
    if src_spec is not None and src_spec.satisfies(spec):
        ovcs = None
        if source.ovcs is not None:
            ovcs = project_ovcs(source.ovcs, spec.arity)
        table = Table(source.schema, list(source.rows), spec, ovcs)
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
        label = f"modify({','.join(str(c) for c in src_spec.columns)})"
        return Enforced(
            table, "modify_sort_order", label, engine, fallback,
            _whole(perm, table),
        )

    positions = spec.positions(source.schema)
    fallback = False
    if engine == "fast":
        from ..fastpath.execute import fast_sort

        try:
            rows, ovcs = fast_sort(
                source.rows, positions, spec.directions, perm, source
            )
        except TypeError:
            if config.engine == "fast":
                raise
            engine, fallback = "reference", True
    if engine == "reference":
        rows, ovcs = tournament_sort(
            source.rows, positions, stats, spec.directions, use_ovc
        )
    table = Table(source.schema, rows, spec, ovcs)
    return Enforced(
        table, "internal_sort", "full-sort", engine, fallback,
        _whole(perm, table),
    )


def _whole(perm: list[int] | None, table: Table) -> list[int] | None:
    """``perm`` if a kernel filled it for every output row, else ``None``
    (not asked for, or the reference engine ran)."""
    return perm if perm is not None and len(perm) == len(table.rows) else None
