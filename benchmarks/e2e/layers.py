"""The layer pass: the same request timed at successive depths.

One thread, one input size for every depth (so depths subtract), each
call repeated ``REPS`` times and recorded as a span whose parent is the
next-outer depth of the same request class and repetition.  Layers are
measured from outside, through their public functions; a layer's self
time is its span minus the matched inner span of the same repetition
(``SELF_TIMES``), the two having run back to back.

A timing metric is the mean, over the workload's request classes, of the
median over repetitions.  Counts come from ``ComparisonStats`` of the
reference engine and from the ``DerivationPlan``; they repeat exactly.

Import only after :func:`harness.bootstrap`.
"""

from __future__ import annotations

import random
import time
from statistics import median

from repro import (
    ComparisonStats,
    ExecutionConfig,
    OrderCache,
    OrderService,
    Query,
    Sort,
    Table,
    analyze_order_modification,
    modify_sort_order,
    reset_cache,
)
from repro.cache import fingerprint_table
from repro.engine.scans import TableScan
from repro.exec.memory import rows_nbytes
from repro.fastpath.execute import fast_sort
from repro.fastpath.packed import pack_codes
from repro.ovc.derive import derive_ovcs, verify_ovcs
from repro.plan import derive_batch, plan_batch
from repro.serve.normalize import SpecNormalizer
from repro.sorting.internal import tournament_sort

from harness import HostProbe, SpanLog
from workloads import BASE, SCHEMA, SIBLINGS, make_source, spec_of

REPS = 7
PROBE_LOG2_ROWS = 12

#: Request classes replayed per workload (two each keeps a traced run
#: inside the run-time budget): the class its p50 sits in, then the
#: class its p95 sits in.
PROBE_ORDERS = {
    "lib_modify": ("ABDC", "DCBA"),
    "query_default": ("ACBD", "BACD"),
    "serve_hot": ("ABDC", "BACD"),
    "serve_churn": ("ABDC", "DCBA"),
    "serve_burst": ("ABDC", "BACD"),
}

#: Derived self times: metric -> (outer span, matched inner span).
SELF_TIMES = {
    "engine.sort_self_ms": ("engine.sort_to_table", "core.modify_reference"),
    "query.self_ms": ("query.order_by", "engine.sort_to_table"),
    "serve.self_ms": ("serve.solo", "engine.sort_to_table"),
}

class _Pass:
    """Times calls, logs spans, keeps the per-repetition durations."""

    def __init__(self, spans: SpanLog, probe: HostProbe, reps: int) -> None:
        self.spans = spans
        self.probe = probe
        self.reps = reps
        #: span name -> per request class, the durations of its
        #: repetitions (ms per call, at nominal host speed).
        self.samples: dict[str, list[list[float]]] = {}

    def chain(self, cls: str, probes: list, *, parent_cls: str | None = None,
              prepare=None, calls: int = 1) -> dict:
        """Time ``(name, fn, parent)`` probes, every repetition running
        each of them once (``prepare`` untimed before each call).

        Interleaving is what makes depths subtract: a depth and the one
        inside it run back to back under the same host conditions.
        ``parent`` names the next-outer span, looked up in ``parent_cls``
        (default: the same request class).  Returns each probe's last
        result by name.
        """
        durations = {name: [] for name, _, _ in probes}
        results = {}
        before = self.probe.sample()
        for rep in range(self.reps):
            for name, fn, parent in probes:
                if prepare is not None:
                    prepare()
                start = time.perf_counter()
                for _ in range(calls):
                    results[name] = fn()
                end = time.perf_counter()
                durations[name].append((end - start) * 1000.0 / calls)
                self.spans.add(
                    f"{cls}/{name}/{rep}", cls, name.split(".")[0], name,
                    start, end,
                    parent=(f"{parent_cls or cls}/{parent}/{rep}"
                            if parent else None),
                )
        factor = (before + self.probe.sample()) / 2.0
        for name, values in durations.items():
            self.samples.setdefault(name, []).append(
                [v / factor for v in values])
        return results

    def time(self, name: str, cls: str, fn, *, parent: str | None = None,
             **kwargs):
        """One probe on its own; returns its last result."""
        return self.chain(cls, [(name, fn, parent)], **kwargs)[name]

    def value(self, name: str) -> float:
        """Mean over request classes of the median repetition."""
        per_class = [median(reps) for reps in self.samples[name]]
        return sum(per_class) / len(per_class)

    def self_time(self, outer: str, inner: str) -> float:
        """Like :meth:`value`, of the matched differences outer - inner."""
        per_class = [
            median([o - i for o, i in zip(outer_reps, inner_reps)])
            for outer_reps, inner_reps
            in zip(self.samples[outer], self.samples[inner])
        ]
        return sum(per_class) / len(per_class)


def layer_pass(workload: str, seed: int, n_rows: int, spans: SpanLog,
               probe: HostProbe, reps: int = REPS) -> dict[str, float]:
    """Measure every layer on workload-shaped data; returns metric values
    (timings at nominal host speed, like the end-to-end ones)."""
    p = _Pass(spans, probe, reps)
    default = ExecutionConfig()
    cached = ExecutionConfig(cache="on")
    source = make_source(n_rows, seed * 1000 + 999)
    shuffled = list(source.rows)
    random.Random(seed).shuffle(shuffled)
    unsorted = Table(SCHEMA, shuffled)
    base_pos = BASE.positions(SCHEMA)
    orders = PROBE_ORDERS[workload]
    batch = [spec_of(o) for o in SIBLINGS[0]]
    counts = {"core.row_comparisons": 0, "core.column_comparisons": 0,
              "core.ovc_comparisons": 0}

    reset_cache()
    service = OrderService(ExecutionConfig(cache="off", service_threads=2))
    try:
        for order in orders:
            target = spec_of(order)
            pos, dirs = target.positions(SCHEMA), target.directions
            key = target.key_for(SCHEMA)

            p.time("floor.sorted", order, lambda: sorted(source.rows, key=key))
            p.time("floor.sorted_derive", order, lambda: derive_ovcs(
                sorted(source.rows, key=key), pos, dirs))
            p.time("fastpath.fast_sort", order,
                   lambda: fast_sort(source.rows, pos, dirs))
            p.time("sorting.tournament_sort", order, lambda: tournament_sort(
                list(shuffled), pos, ComparisonStats(), dirs, True))

            p.time("core.analyze", order,
                   lambda: analyze_order_modification(BASE, target), calls=100)
            p.time("core.modify", order,
                   lambda: modify_sort_order(source, target))

            # Successive depths of one request, innermost first:
            # serve.solo > engine.sort_to_table > core.modify_reference,
            # and query.order_by > engine.sort_to_table.
            seen = []

            def _reference():
                stats = ComparisonStats()
                seen.append(stats)
                return modify_sort_order(
                    source, target, stats=stats,
                    config=ExecutionConfig(engine="reference"),
                )

            result = p.chain(order, [
                ("core.modify_reference", _reference, "engine.sort_to_table"),
                ("engine.sort_to_table", lambda: Sort(
                    TableScan(source), target, config=default).to_table(),
                 "serve.solo"),
                ("query.order_by", lambda: Query(source).order_by(
                    *order, config=default).to_table(), None),
                ("serve.solo", lambda: service.order_by(source, target), None),
            ])["core.modify_reference"]
            if any(s.as_dict() != seen[0].as_dict() for s in seen):
                raise AssertionError("reference-engine counts do not repeat")
            for field in ("row", "column", "ovc"):
                counts[f"core.{field}_comparisons"] += getattr(
                    seen[0], f"{field}_comparisons")
            fp = fingerprint_table(source)
            p.time("serve.normalize", order,
                   lambda: SpecNormalizer().normalize(fp, source, target),
                   parent="serve.solo")

            # The same Sort with the cache on: cold+install, then exact hit.
            p.time("cache.miss", order, lambda: Sort(
                TableScan(source), target, config=cached).to_table(),
                prepare=reset_cache)
            p.time("cache.hit", order, lambda: Sort(
                TableScan(source), target, config=cached).to_table())
            reset_cache()
            with OrderCache() as private:
                p.time("cache.install", order, lambda: private.install(
                    fp, target, result.rows, result.ovcs, ComparisonStats()),
                    parent="cache.miss")

        # Probes that do not depend on the target order.
        cls = "source"
        p.time("fastpath.pack_codes", cls, lambda: pack_codes(source.ovcs))
        p.time("ovc.derive", cls, lambda: derive_ovcs(source.rows, base_pos))
        p.time("ovc.verify", cls,
               lambda: verify_ovcs(source.rows, source.ovcs, base_pos))
        p.time("engine.scan_to_table", cls,
               lambda: TableScan(source).to_table(),
               parent="engine.sort_to_table", parent_cls=orders[0])
        p.time("cache.fingerprint", cls, lambda: fingerprint_table(source),
               parent="serve.solo", parent_cls=orders[0])
        p.time("exec.rows_nbytes", cls,
               lambda: rows_nbytes(source.rows, source.ovcs),
               parent="serve.solo", parent_cls=orders[0])

        # A sibling of a cached order, over an unordered input: the cost
        # model prefers modifying the cached order to a full sort.
        def _install_sibling():
            reset_cache()
            Sort(TableScan(unsorted), BASE, config=cached).to_table()

        op = None

        def _modify_from():
            nonlocal op
            op = Sort(TableScan(unsorted), batch[0], config=cached)
            return op.to_table()

        p.time("cache.modify_from", cls, _modify_from, prepare=_install_sibling)
        if not op.order_strategy.startswith("modify-from-cache"):
            raise AssertionError(
                f"cache.modify_from probe took {op.order_strategy!r}")
        reset_cache()

        # The batch planner against the same orders run one by one.
        cls = "batch"
        p.time("plan.plan_batch", cls, lambda: plan_batch(source, batch),
               parent="plan.derive_batch")
        derived = p.chain(cls, [
            ("plan.derive_batch",
             lambda: derive_batch(source, batch, config=default), None),
            ("plan.independent", lambda: [
                Sort(TableScan(source), s, config=default).to_table()
                for s in batch], None),
            ("query.order_by_many",
             lambda: Query(source).order_by_many(batch, config=default), None),
        ])["plan.derive_batch"]
    finally:
        service.close()
        reset_cache()

    metrics = {f"{name}_ms": p.value(name) for name in p.samples}
    metrics["core.analyze_us"] = metrics.pop("core.analyze_ms") * 1000.0
    for metric, (outer, inner) in SELF_TIMES.items():
        metrics[metric] = p.self_time(outer, inner)
    metrics.update(counts)
    metrics["plan.sibling_edges"] = derived.plan.sibling_edges()
    metrics["plan.fallbacks"] = derived.fallbacks
    metrics["plan.est_over_actual"] = (
        derived.plan.est_planned / max(1, derived.stats.row_comparisons))
    return metrics


def floor_sorted_ms(workload: str, seed: int, n_rows: int, spans: SpanLog,
                    probe: HostProbe, reps: int = REPS) -> float:
    """``sorted()`` on the workload's own input size and p50 class."""
    p = _Pass(spans, probe, reps)
    source = make_source(n_rows, seed * 1000)
    key = spec_of(PROBE_ORDERS[workload][0]).key_for(SCHEMA)
    p.time("floor.sorted_own", "own-size", lambda: sorted(source.rows, key=key))
    return p.value("floor.sorted_own")
