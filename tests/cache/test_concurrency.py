"""Thread-safety: concurrent hits, misses, installs, and invalidations
never tear an entry, and the hit/miss counters stay consistent."""

from __future__ import annotations

import random
import threading

from repro.cache import fingerprint_rows
from repro.cache.store import OrderCache
from repro.model import SortSpec
from repro.ovc.derive import derive_ovcs


SCHEMA = ("A", "B")
N_THREADS = 8
OPS_PER_THREAD = 120


def _dataset(salt: int):
    """One source multiset with its sorted orders and fingerprints."""
    rows = [((i * 7 + salt) % 13, (i * 3) % 11) for i in range(80)]
    out = {}
    for cols in (("A", "B"), ("B", "A")):
        spec = SortSpec(cols)
        positions = tuple({"A": 0, "B": 1}[c] for c in cols)
        ordered = sorted(rows, key=lambda r: tuple(r[p] for p in positions))
        out[spec] = (tuple(ordered), tuple(derive_ovcs(ordered, positions)))
    return fingerprint_rows(rows, SCHEMA), out


def test_concurrent_mixed_traffic_consistent():
    datasets = [_dataset(salt) for salt in range(4)]
    # Tight budget so spill/rehydrate churn runs concurrently too.
    sample_rows, sample_ovcs = datasets[0][1][SortSpec.of("A", "B")]
    from repro.exec.memory import rows_nbytes

    cache = OrderCache(budget=2 * rows_nbytes(sample_rows, sample_ovcs))
    errors: list[str] = []
    lookups = [0] * N_THREADS
    barrier = threading.Barrier(N_THREADS)

    def worker(tid: int) -> None:
        rng = random.Random(tid)
        barrier.wait()
        for _ in range(OPS_PER_THREAD):
            fp, orders = datasets[rng.randrange(len(datasets))]
            spec = rng.choice(list(orders))
            rows, ovcs = orders[spec]
            op = rng.random()
            if op < 0.25:
                cache.install(fp, spec, rows, ovcs)
            elif op < 0.90:
                lookups[tid] += 1
                hit = cache.lookup(fp, spec)
                if hit is not None:
                    # A torn entry would show up as foreign rows/codes.
                    if hit.table.rows != rows or hit.table.ovcs != ovcs:
                        errors.append(f"thread {tid}: torn entry for {spec}")
            elif op < 0.97:
                cache.candidates(fp)
            else:
                cache.invalidate(fp.source_key)

    threads = [
        threading.Thread(target=worker, args=(tid,))
        for tid in range(N_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors, errors[:5]
    counters = cache.counters()
    # Monotonic consistency: every exact lookup is exactly one hit or
    # one miss, never both, never neither.
    assert counters["hits"] + counters["misses"] == sum(lookups)
    assert counters["hits"] > 0 and counters["misses"] > 0
    # Whatever survived is intact.
    for fp, orders in datasets:
        for spec, (rows, ovcs) in orders.items():
            hit = cache.lookup(fp, spec)
            if hit is not None:
                assert hit.table.rows == rows and hit.table.ovcs == ovcs
    cache.close()
    assert len(cache) == 0
