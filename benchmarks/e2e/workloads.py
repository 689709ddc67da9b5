"""The five workloads: from the bare kernel to a served request.

Every workload is a closed loop with a *fixed operation count*
(``ops_per_second`` x ``--seconds``, the rate calibrated once on the
reference host at the seed commit), so both sides of a comparison answer
exactly the same requests and a faster program simply finishes sooner.
Inputs, schedules and oracle digests all derive from ``--seed``.

Mix-design rule: sorted by cost, the request classes of a workload put
no class boundary within five percentile points of p50 or p95 -- both
percentiles sit inside one class, so a small shift in one class's cost
moves them smoothly instead of flipping them between classes.  The
weights below were chosen against the measured class costs; change the
mix, not the bound, if a percentile starts to jump.

Import only after :func:`harness.bootstrap`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro import (
    ExecutionConfig,
    OrderService,
    Query,
    Schema,
    SortSpec,
    Table,
    modify_sort_order,
    reset_cache,
)
from repro.cache import get_cache
from repro.exec.memory import rows_nbytes
from repro.ovc.derive import derive_ovcs
from repro.workloads.generators import random_sorted_table, random_table

from harness import ClientLog, digest

SCHEMA = Schema.of("A", "B", "C", "D")
BASE = SortSpec.of("A", "B", "C", "D")

#: Eight target orders of a source sorted on A,B,C,D; none is satisfied
#: by the source order, so none is a pass-through.  First four share the
#: prefix A (segment-local work), last four do not (whole-input merges
#: and the full-sort fallback).
ORDERS = ("ABDC", "ACBD", "ACDB", "ADBC", "BACD", "BADC", "CDAB", "DCBA")
SIBLINGS = (ORDERS[:4], ORDERS[4:])


def spec_of(name: str) -> SortSpec:
    """``"ACBD"`` -> ``SortSpec.of("A", "C", "B", "D")``."""
    return SortSpec.of(*name)


#: Every order any workload requests, built once (requests reuse them).
SPECS = {name: spec_of(name) for name in ORDERS + ("ADCB", "ABCD")}


def make_source(n_rows: int, seed: int, heavy: bool = False,
                ordered: bool = True) -> Table:
    """One input table.

    Normal sources repeat every key prefix (so the service's order
    normalization never shortens a target) yet keep full-row ties rare;
    heavy-tie sources hold at most ``n_rows / 8`` distinct rows, which
    sends the cache through its tie re-breaking path.
    """
    if heavy:
        domains = (4, 4, 4, max(2, n_rows // 512))
    else:
        domains = (8, 8, 16, max(2, n_rows // 64))
    if ordered:
        return random_sorted_table(SCHEMA, BASE, n_rows, domains, seed)
    return random_table(SCHEMA, n_rows, domains, seed)


def oracle_digest(source: Table, target: SortSpec) -> int:
    """Digest of the one right answer: stable ``sorted()`` + fresh codes."""
    rows = sorted(source.rows, key=target.key_for(SCHEMA))
    ovcs = derive_ovcs(rows, target.positions(SCHEMA), target.directions)
    return digest(rows, ovcs)


def weighted_schedule(rng: random.Random, n_ops: int, weighted: list) -> list:
    """``n_ops`` items in exact ``(item, weight)`` proportions, shuffled."""
    cycle = [item for item, weight in weighted for _ in range(weight)]
    schedule = [cycle[i % len(cycle)] for i in range(n_ops)]
    rng.shuffle(schedule)
    return schedule


@dataclass
class State:
    """Everything one set-up builds."""

    sources: list
    #: Every ``(source index, order name)`` the schedules can request.
    pairs: list
    #: One operation list per client.
    schedules: list
    service: OrderService | None = None
    #: ``(source index, order name)`` -> oracle digest (:meth:`Workload.oracle`).
    digests: dict = field(default_factory=dict)


class Workload:
    """Base: a named mix with a set-up, a client body and a teardown."""

    name = ""
    log2_rows = 12
    #: Fixed-count sizing: operations per ``--seconds`` second.
    ops_per_second = 1.0
    clients = 1
    #: Operations one schedule entry stands for (a burst is several).
    ops_per_entry = 1
    #: Schedule entries per client between two host-probe samples.
    round_ops = 4
    #: Schedule entries in one full turn of the mix; a client's schedule
    #: is a whole number of turns, so the mix is exact at any length.
    cycle = 1

    def n_ops(self, seconds: float) -> int:
        """Operations of the timed phase, all clients together."""
        entries = max(1, round(self.ops_per_second * seconds
                               / (self.ops_per_entry * self.clients)))
        if entries > self.cycle:
            entries -= entries % self.cycle
        return entries * self.ops_per_entry * self.clients

    def setup(self, seed: int, n_rows: int, n_ops: int) -> State:
        """Inputs, schedules, service start and warm-up (what ``setup_s``
        times); everything derives from ``seed``."""
        raise NotImplementedError

    def oracle(self, state: State) -> None:
        """Digest of the right answer to every request the run can make.
        The benchmark's own cost, so it stays outside ``setup_s``."""
        state.digests = {
            (si, order): oracle_digest(state.sources[si], SPECS[order])
            for si, order in state.pairs
        }

    def call(self, state: State, si: int, order: str) -> Table:
        """One operation: source ``si`` delivered in ``order``."""
        raise NotImplementedError

    def client(self, state: State, schedule: list, log: ClientLog) -> None:
        """Closed-loop client: time the call, then check it (untimed)."""
        digests = state.digests
        for si, order in schedule:
            log.attempted += 1
            start = time.perf_counter()
            try:
                out = self.call(state, si, order)
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                log.fail(f"{order}: {exc!r}")
                continue
            end = time.perf_counter()
            log.ops.append((order, start, end))
            log.rows += len(out.rows)
            if digest(out.rows, out.ovcs) != digests[si, order]:
                log.fail(f"{order}: response differs from the oracle")
            out = None  # free the answer here, not inside the next timer

    def teardown(self, state: State) -> None:
        if state.service is not None:
            state.service.close()
        reset_cache()

    def counters(self, state: State) -> dict:
        """Public counters of the layers this workload holds live."""
        out = {}
        if state.service is not None:
            out.update({f"serve.{k}": v
                        for k, v in state.service.counters().items()})
        cache = get_cache()
        if cache is not None:
            out.update({f"cache.{k}": v for k, v in cache.counters().items()})
        return out

    def _start_service(self, state: State, config: ExecutionConfig,
                       warmup: list) -> None:
        reset_cache()
        state.service = OrderService(config)
        for si, order in warmup:
            state.service.order_by(state.sources[si], SPECS[order])


class LibModify(Workload):
    """``modify_sort_order`` called directly: the kernel with nothing
    around it."""

    name = "lib_modify"
    log2_rows = 14
    ops_per_second = 66.7
    cycle = 40
    #: Merge-runs (BACD, CDAB), combined with a short and a long shared
    #: prefix (ACBD, ABDC), segment-sort (ADCB) and the full-sort
    #: fallback (DCBA), cheapest class first: p50 falls inside CDAB/ADCB
    #: (40-85 %), p95 inside DCBA (85-100 %).
    mix = (("BACD", 2), ("ACBD", 3), ("ABDC", 3), ("CDAB", 6),
           ("ADCB", 3), ("DCBA", 3))

    def setup(self, seed, n_rows, n_ops):
        rng = random.Random(seed)
        sources = [make_source(n_rows, seed * 1000 + i) for i in range(2)]
        items = [((si, o), w) for o, w in self.mix for si in range(2)]
        return State(sources, [pair for pair, _ in items],
                     [weighted_schedule(rng, n_ops, items)])

    def call(self, state, si, order):
        return modify_sort_order(state.sources[si], SPECS[order])


class QueryDefault(Workload):
    """``Query.order_by().to_table()`` under the default config: the
    operator path, which pins the reference executors."""

    name = "query_default"
    log2_rows = 12
    ops_per_second = 54.0
    cycle = 12
    #: Sources 0-1 are sorted (related orders: two thirds of the mix),
    #: source 2 is unsorted (true full sorts: one third).  p50 falls
    #: inside ACBD (25-67 %), p95 inside the full sorts (67-100 %).
    mix = (((0, "BACD"), 2), ((1, "BACD"), 1), ((0, "ACBD"), 2),
           ((1, "ACBD"), 3), ((2, "ABCD"), 2), ((2, "DCBA"), 2))

    def setup(self, seed, n_rows, n_ops):
        rng = random.Random(seed)
        sources = [make_source(n_rows, seed * 1000 + i) for i in range(2)]
        sources.append(make_source(n_rows, seed * 1000 + 2, ordered=False))
        return State(sources, [pair for pair, _ in self.mix],
                     [weighted_schedule(rng, n_ops, list(self.mix))])

    def call(self, state, si, order):
        return Query(state.sources[si]).order_by(*order).to_table()


class _Served(Workload):
    """Workloads whose operation is ``OrderService.order_by``."""

    clients = 2

    def call(self, state, si, order):
        return state.service.order_by(state.sources[si], SPECS[order]).table


class ServeHot(_Served):
    """Warm cache that fits: every request is an exact hit or a
    coalesced duplicate."""

    name = "serve_hot"
    ops_per_second = 100.0
    round_ops = 8
    n_sources = 3

    def setup(self, seed, n_rows, n_ops):
        rng = random.Random(seed)
        sources = [make_source(n_rows, seed * 1000 + i, heavy=(i == 2))
                   for i in range(self.n_sources)]
        pairs = [(si, o) for si in range(self.n_sources) for o in ORDERS]
        rng.shuffle(pairs)  # which pairs are popular depends on the seed
        zipf = [1.0 / (rank + 1) for rank in range(len(pairs))]
        per_client = n_ops // self.clients
        schedules = [rng.choices(pairs, weights=zipf, k=per_client)
                     for _ in range(self.clients)]
        state = State(sources, pairs, schedules)
        self._start_service(
            state, ExecutionConfig(cache="on", service_threads=2), sorted(pairs)
        )
        return state


class ServeChurn(_Served):
    """Working set 21x the cache budget: installs, spills, rehydrates,
    modify-from-cache and cold executions."""

    name = "serve_churn"
    ops_per_second = 53.3
    n_sources = 16
    budget_entries = 6
    round_ops = 2
    cycle = 64  # 128 pairs over two clients

    def setup(self, seed, n_rows, n_ops):
        rng = random.Random(seed)
        sources = [make_source(n_rows, seed * 1000 + i, heavy=(i == 0))
                   for i in range(self.n_sources)]
        pairs = [(si, o) for si in range(self.n_sources) for o in ORDERS]
        # Every pair equally often (not sampled), so the cold share of
        # the run is the same for every seed; only the order varies.
        draws = [pairs[i % len(pairs)] for i in range(n_ops)]
        rng.shuffle(draws)
        schedules = [draws[c::self.clients] for c in range(self.clients)]
        state = State(sources, pairs, schedules)
        entry = rows_nbytes(sources[1].rows, sources[1].ovcs)
        config = ExecutionConfig(
            cache="on", cache_budget=self.budget_entries * entry,
            service_threads=2,
        )
        warmup = [(si, ORDERS[si % len(ORDERS)]) for si in range(self.n_sources)]
        self._start_service(state, config, warmup)
        return state


class ServeBurst(_Served):
    """Cache off, 10 ms plan window, bursts of four sibling orders: the
    batch planner carries the request."""

    name = "serve_burst"
    ops_per_second = 32.0
    n_sources = 4
    ops_per_entry = 4
    round_ops = 1
    cycle = 4

    def setup(self, seed, n_rows, n_ops):
        rng = random.Random(seed)
        sources = [make_source(n_rows, seed * 1000 + i, heavy=(i == 0))
                   for i in range(self.n_sources)]
        pairs = [(si, o) for si in range(self.n_sources) for o in ORDERS]
        # Each client bursts against its own two sources, so whether two
        # bursts coalesce never depends on how a seed shuffles them.
        per_client = n_ops // (self.ops_per_entry * self.clients)
        schedules = [
            weighted_schedule(rng, per_client, [
                ((si, group), 1)
                for si in (2 * c, 2 * c + 1) for group in SIBLINGS
            ])
            for c in range(self.clients)
        ]
        state = State(sources, pairs, schedules)
        config = ExecutionConfig(
            cache="off", plan_window_ms=10, service_threads=2
        )
        self._start_service(state, config, [(0, ORDERS[0])])
        return state

    def client(self, state, schedule, log):
        """Submit a burst's four requests, then collect them in order;
        latency is per request, its own submit to its own result."""
        service, digests = state.service, state.digests
        for si, group in schedule:
            source = state.sources[si]
            tickets = []
            for order in group:
                log.attempted += 1
                start = time.perf_counter()
                try:
                    tickets.append((order, start,
                                    service.submit(source, SPECS[order])))
                except Exception as exc:  # noqa: BLE001 - counted
                    log.fail(f"{order}: {exc!r}")
            answers = []
            for order, start, ticket in tickets:
                try:
                    table = ticket.result().table
                except Exception as exc:  # noqa: BLE001 - counted
                    log.fail(f"{order}: {exc!r}")
                    continue
                log.ops.append((order, start, time.perf_counter()))
                answers.append((order, table))
            for order, table in answers:
                log.rows += len(table.rows)
                if digest(table.rows, table.ovcs) != digests[si, order]:
                    log.fail(f"{order}: response differs from the oracle")
            # Free the answers here, not inside the next burst's timers.
            tickets = answers = ticket = table = None


WORKLOADS = {w.name: w for w in (
    LibModify(), QueryDefault(), ServeHot(), ServeChurn(), ServeBurst(),
)}
