"""Serving from the cache: exact hits, modify-from-cached-order, or cold.

This is the cache's brain.  Given the live source table and a desired
order, :func:`serve` decides between three outcomes (the parent rule,
:func:`_cheapest_parent`, is shared with the batch planner):

* **Exact hit** — the requested order is cached for this row sequence:
  the entry's table is returned as is (a memo hit builds nothing).  A
  hit compares nothing, so it adds nothing to the caller's
  :class:`~repro.ovc.stats.ComparisonStats`.  The order service asks
  this branch alone (:func:`_exact_hit`) on the caller's thread at
  submit, and queues only what it does not answer.
* **Modify from the best cached order** — only for an *unordered*
  source (or one without codes).  An ordered, coded source is its own
  parent: modifying it is the paper's algorithm on the fast kernels,
  and deriving from a cached sibling instead (a fresh parent table, its
  key fields normalized anew, then the tie re-break below) cost
  1.13-1.30x a miss in the median of the pairs the cost model picked on
  the benchmark's orders (EXPERIMENTS.md, "The modify-from-cache
  verdict").  For an unordered source the requested order is not
  cached, but sibling orders of the same sequence are: each candidate
  is priced with :meth:`repro.core.cost.CostModel.modify_from` (segment
  and run counts read from the candidate's stored code-offset
  histogram, no data scan) against a full sort.  A candidate that wins
  by ``WIN_MARGIN`` is fed — rows and codes, zero copies — straight
  into :func:`~repro.core.modify.modify_sort_order`; the result is
  re-tie-broken against the source sequence (sorting here is stable, so
  rows equal under the requested key must leave in *arrival* order, not
  in the candidate's, for the output to stay bit-identical to uncached
  execution — in permutation space, each tie group's indices sorted
  ascending) and installed as a new entry.
* **Miss** — nothing cached is worth using; the caller executes its
  normal path and registers the output via :func:`install_result`.

Everything returned to callers is bit-identical — rows *and* codes —
to what the uncached execution would have produced.  Comparison counts
are not: they are the work *this* call did (none for a hit, the
modify's own for a modify-from-cache).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter

from ..core.analysis import Strategy, analyze_order_modification
from ..core.cost import CostModel, counts_to_structure
from ..core.enforce import Enforced, enforce_order
from ..exec.config import ExecutionConfig
from ..fastpath.packed import gather
from ..model import SortSpec, Table
from ..obs import LOG, METRICS, TRACER
from ..ovc.stats import ComparisonStats
from .fingerprint import Fingerprint, fingerprint_table
from .store import CachedOrder, OrderCache, _perm_of

#: A cached candidate must beat a full sort's estimate by this factor
#: before the dispatcher derives an unordered source's order from it.
#: Tuned on reference-engine timings: on the fast kernels it picks the
#: sibling in 28 of the benchmark's 64 (target, sibling) pairs, and 3 of
#: those beat a miss by more than 5 % at 2^12, 6 at 2^16 (EXPERIMENTS.md,
#: "The modify-from-cache verdict").  Pricing it from measured costs is
#: ROADMAP item 4.
WIN_MARGIN = 0.9


@dataclass
class ServeOutcome:
    """What :func:`serve` decided (and the fingerprint it computed)."""

    fingerprint: Fingerprint
    #: The served result, or ``None`` for a miss (caller executes cold).
    #: Its sequences may be the cache entry's own tuples, shared as is.
    table: Table | None = None
    #: ``"cache-hit(<order>)"`` or ``"modify-from-cache(<order>)"``.
    label: str | None = None


def _estimate(
    existing: SortSpec,
    desired: SortSpec,
    n_rows: int,
    offset_counts: tuple,
) -> float:
    """Estimated cost of producing ``desired`` by modifying ``existing``."""
    plan = analyze_order_modification(existing, desired)
    if plan.strategy is Strategy.NOOP:
        return 0.0
    n_segments, n_runs = counts_to_structure(
        offset_counts, plan.prefix_len, plan.infix_len
    )
    model = CostModel(n_rows, n_segments, n_runs)
    if plan.strategy is Strategy.FULL_SORT:
        return model.full_sort().total
    return model.modify_from(plan).total


def _cheapest_parent(
    source: Table,
    spec: SortSpec,
    candidates: list[CachedOrder],
) -> tuple[CachedOrder | None, float, float]:
    """Where ``spec`` is cheapest to derive from, among the materialized
    orders of ``source``'s rows: ``(candidate, its estimated cost,
    baseline)``; ``candidate`` is ``None`` for ``source`` itself.

    A candidate of ``spec`` itself is an exact hit and costs nothing.
    Otherwise an ordered source with codes is its own parent and nothing
    is priced (both costs 0.0).  An unordered one is priced as a full
    sort, and a cached order must beat that baseline by ``WIN_MARGIN``.
    One rule for a solo request (:func:`serve`) and for every order of a
    planned batch (:func:`repro.plan.plan_batch`).
    """
    if source.sort_spec is not None and source.ovcs is not None:
        hit = next((c for c in candidates if c.spec == spec), None)
        return hit, 0.0, 0.0
    n = len(source.rows)
    baseline = CostModel(n, 1, 1).full_sort().total
    best: CachedOrder | None = None
    best_cost = WIN_MARGIN * baseline
    for cand in candidates:
        if cand.spec == spec:
            return cand, 0.0, baseline
        cost = _estimate(cand.spec, spec, n, cand.offset_counts)
        if cost < best_cost:
            best, best_cost = cand, cost
    return best, best_cost if best is not None else baseline, baseline


def _exact_hit(
    cache: OrderCache,
    fp: Fingerprint,
    spec: SortSpec,
    count_miss: bool = True,
) -> tuple[CachedOrder, str] | None:
    """The exact-hit branch of :func:`serve`, also the order service's
    probe at submit: ``spec`` of ``fp``'s rows as the cache holds it,
    with its strategy label, or ``None`` on a miss.  A miss is counted
    unless ``count_miss`` is false (:meth:`OrderCache.lookup`)."""
    hit = cache.lookup(fp, spec, count_miss=count_miss)
    if hit is None:
        return None
    if LOG.enabled:
        LOG.event(
            "cache.serve", decision="hit", order=spec.label,
            rows=fp.n_rows, entry=hit.state, entry_bytes=hit.nbytes,
        )
    return hit, f"cache-hit({spec.label})"


def serve(
    cache: OrderCache,
    source: Table,
    spec: SortSpec,
    *,
    stats: ComparisonStats,
    config: ExecutionConfig,
) -> ServeOutcome:
    """Try to answer ``Sort(source, spec)`` from the cache.

    ``source`` is the materialized child table (ordered with codes, or
    unordered).  ``stats`` counts the comparisons *this* call makes on
    the reference engine: an exact hit makes none and adds nothing;
    a modify-from-cache counts its own modify into it (the
    packed-code kernels count nothing), and rolls it back on failure.
    """
    fp = fingerprint_table(source)
    outcome = ServeOutcome(fp)
    found = _exact_hit(cache, fp, spec)
    if found is not None:
        hit, outcome.label = found
        outcome.table = hit.table
        return outcome

    n = len(source.rows)

    def miss(reason: str, **detail) -> ServeOutcome:
        if LOG.enabled:
            LOG.event(
                "cache.serve", decision="miss", order=spec.label, rows=n,
                reason=reason, **detail,
            )
        return outcome

    candidates = cache.candidates(fp)
    if not candidates:
        return miss("no-candidates")
    best, best_cost, baseline = _cheapest_parent(source, spec, candidates)
    if best is None:
        return miss(
            "no-candidate-beats-baseline"
            if source.sort_spec is None else "source-is-parent",
            baseline_cost=round(baseline, 1), candidates=len(candidates),
        )
    chosen = cache.fetch(fp, best.spec)
    if chosen is None:  # evicted since the scan
        return miss("candidate-evicted")
    result = _modify_from(cache, fp, chosen, spec, stats, config)
    if result is None:
        return miss("modify-from-cache-failed", candidate=best.spec.label)
    outcome.table = result
    outcome.label = f"modify-from-cache({best.spec.label})"
    if LOG.enabled:
        LOG.event(
            "cache.serve", decision="modify-from-cache",
            order=spec.label, candidate=best.spec.label, rows=n,
            est_cost=round(best_cost, 1), baseline_cost=round(baseline, 1),
            entry=chosen.state, entry_bytes=chosen.nbytes,
        )
    return outcome


def _modify_from(
    cache: OrderCache,
    fp: Fingerprint,
    chosen: CachedOrder,
    spec: SortSpec,
    stats: ComparisonStats,
    config: ExecutionConfig,
) -> Table | None:
    """Produce ``spec`` from a cached sibling order; ``None`` on failure
    (counters rolled back, caller falls through to cold execution)."""
    before = stats.snapshot()
    try:
        with TRACER.span(
            "cache.modify_from",
            rows=len(chosen.table),
            source=chosen.spec.label,
            target=spec.label,
            entry=chosen.state,
            entry_bytes=chosen.nbytes,
        ):
            # A table of its own: the records enforcing builds must not
            # stay on the memo table, where the budget charges nothing.
            parent = replace(chosen.table)
            done = enforce_order(
                parent, spec, stats=stats, config=config, want_perm=True
            )
            result, perm = _rebase(done, parent, chosen.perm, fp.rows)
    except (TypeError, LookupError):
        # TypeError: a forced fast engine met unpackable keys.
        # LookupError: a row of the result is missing from the
        # candidate or the source — a fingerprint collision delivered
        # foreign data.  Either way the cold path is the answer; undo
        # the partial counter damage.
        stats.reset()
        stats.merge(before)
        return None
    if METRICS.enabled:
        METRICS.counter("cache.modify_serves").inc()
    cache.install(fp, spec, result.rows, result.ovcs, perm=perm)
    return result


def _rebase(
    done: Enforced, parent: Table, parent_perm, source_rows
) -> tuple[Table, list[int]]:
    """``done`` — an order enforced on ``parent`` (``want_perm=True``),
    itself ``source_rows`` permuted by ``parent_perm`` (derived by value
    when ``None``) — as a sort of the source itself would have left it:
    rows equal under the whole key in source arrival order.  Returns
    the table and its permutation of ``source_rows``.  ``LookupError``:
    ``parent`` holds rows the source does not."""
    rows, ovcs, spec = done.table.rows, done.table.ovcs, done.table.sort_spec
    step = done.perm
    if step is None:
        step = _perm_of(parent.rows, rows)
    if parent_perm is None:
        parent_perm = _perm_of(source_rows, parent.rows)
    perm = list(gather(parent_perm, step))
    if ovcs is not None and _retiebreak(
        perm, list(map(itemgetter(0), ovcs)), spec.arity
    ):
        rows = gather(source_rows, perm)
    return Table(parent.schema, rows, spec, ovcs), perm


def install_result(
    cache: OrderCache,
    fp: Fingerprint,
    spec: SortSpec,
    table: Table,
    perm: list[int] | None = None,
) -> bool:
    """Register a cold execution's output (must carry codes).

    ``perm`` is :meth:`OrderCache.install`'s: the output as indices
    into the fingerprinted rows, when the kernel that produced it said.
    """
    if table.ovcs is None:
        return False
    return cache.install(fp, spec, table.rows, table.ovcs, perm=perm)


def _retiebreak(perm: list[int], offsets: list[int], arity: int) -> bool:
    """Sort each full-key tie group's slice of ``perm`` ascending — rows
    equal under the whole sort key leave a stable sort in arrival order,
    whatever order the candidate held them in.  Codes inside a group do
    not depend on which member stands first.  True if any group exists."""
    n, i = len(perm), 1
    try:
        while True:
            start = i = offsets.index(arity, i)
            while i < n and offsets[i] == arity:
                i += 1
            perm[start - 1:i] = sorted(perm[start - 1:i])
    except ValueError:  # no further duplicate code
        return i > 1
