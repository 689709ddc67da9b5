"""Shared plumbing of the end-to-end benchmark.

Nothing here imports ``repro`` at module level: :func:`bootstrap` has to
scrub the environment and extend ``sys.path`` first, so a run measures
the checkout it sits in under the default configuration and nothing
else.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space inside the checkout (cache spill files land here).
WORK = HERE / ".work"


def bootstrap() -> None:
    """Make ``import repro`` hermetic: this checkout's ``src``, no
    ``REPRO_*`` overrides, temp files (cache spills) inside the checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmarks/e2e: no src/repro under {ROOT}; run from a full checkout")
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(ROOT / "src"))
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None


def cleanup() -> None:
    """Remove this process's temp directory (and ``.work`` once empty)."""
    shutil.rmtree(WORK / f"tmp-{os.getpid()}", ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of an unsorted sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def digest(rows, ovcs) -> int:
    """Fingerprint of one response: every row and every code, in order.

    ``hash`` over int tuples is exact enough for an oracle (64 bits) and
    runs in C, so checking every response costs a few percent of the
    cheapest operation instead of rivalling it.
    """
    return hash((tuple(rows), tuple(ovcs)))


# ------------------------------------------------------------------ spans


class SpanLog:
    """In-memory span list, written out once when the run ends."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []

    def add(self, span_id: str, request_class: str, layer: str, name: str,
            start: float, end: float, parent: str | None = None) -> None:
        self.spans.append({
            "id": span_id,
            "workload": self.workload,
            "request_class": request_class,
            "layer": layer,
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
        })

    def write(self, path: Path) -> None:
        """Append the spans to ``path``, one JSON object per line."""
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ------------------------------------------------------------ host speed


class HostProbe:
    """A fixed piece of CPU-and-memory work that tells how fast the host
    is running right now.

    The reference host is a small shared VM: identical work takes up to
    twice as long for seconds to minutes at a time (a pure-Python loop
    measured 77-121 ms, in CPU time, back to back), which would put every
    timing's run-to-run spread above any useful regression bound.  The
    probe -- a ``sorted()`` plus a code-derivation-shaped loop over 2048
    fixed rows, nothing from ``repro`` -- is sampled before and after
    every short round of operations, and each timing is scaled by
    ``NOMINAL_MS / probe time``: what is reported is milliseconds *at
    nominal host speed*.  On a quiet host the factor is about 1.
    """

    #: Probe duration on the quiet reference host; the unit of "nominal".
    NOMINAL_MS = 1.2
    #: Untimed calls first: right after a round the probe's own rows are
    #: out of the CPU caches, and that cold start (up to +40 % on the
    #: first call) says how big the workload is, not how fast the host.
    WARMUP_CALLS = 2
    CALLS = 3

    def __init__(self) -> None:
        rng = random.Random(20250927)
        self._rows = [tuple(rng.randrange(d) for d in (8, 8, 16, 64))
                      for _ in range(2048)]
        self._key = itemgetter(2, 3, 0, 1)
        self.samples: list[float] = []

    def _work(self) -> list:
        rows = sorted(self._rows, key=self._key)
        out = []
        prev = rows[0]
        for row in rows:
            for i in range(4):
                if row[i] != prev[i]:
                    break
            out.append((i, row[i]))
            prev = row
        return out

    def sample(self) -> float:
        """Slow-down factor of the host right now (1.0 = nominal)."""
        for _ in range(self.WARMUP_CALLS):
            self._work()
        start = time.perf_counter()
        for _ in range(self.CALLS):
            self._work()
        ms = (time.perf_counter() - start) * 1000.0 / self.CALLS
        self.samples.append(ms / self.NOMINAL_MS)
        return self.samples[-1]

    def timed(self, fn):
        """``(result, seconds at nominal speed, raw seconds)`` of one call
        bracketed by two samples."""
        before = self.sample()
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        return result, raw / ((before + self.sample()) / 2.0), raw


# ----------------------------------------------------------- closed loop


@dataclass
class ClientLog:
    """What one closed-loop client observed."""

    #: ``(request_class, start, end)`` per answered operation.
    ops: list[tuple] = field(default_factory=list)
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


@dataclass
class Round:
    """A short slice of every client's schedule, run between two probe
    samples; ``factor`` is the host slow-down it ran under."""

    logs: list[ClientLog]
    wall: float
    factor: float


def run_clients(schedules: list[list], client_fn) -> tuple[list[ClientLog], float]:
    """Run one closed-loop client per schedule; returns logs and the
    wall time from the common start to the last client's finish.

    ``client_fn(schedule, log)`` issues the schedule's operations one
    after the other, each waiting for its answer.  A single schedule
    runs on the calling thread (no thread, no barrier).
    """
    logs = [ClientLog() for _ in schedules]
    if len(schedules) == 1:
        start = time.perf_counter()
        client_fn(schedules[0], logs[0])
        return logs, time.perf_counter() - start

    barrier = threading.Barrier(len(schedules) + 1)

    def _client(schedule, log):
        barrier.wait()
        client_fn(schedule, log)

    threads = [
        threading.Thread(target=_client, args=(s, log), name=f"client-{i}")
        for i, (s, log) in enumerate(zip(schedules, logs))
    ]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    return logs, time.perf_counter() - start


def run_rounds(probe: HostProbe, schedules: list[list], client_fn,
               round_ops: int) -> list[Round]:
    """The timed phase: the schedules cut into rounds of ``round_ops``
    operations per client, the host probe sampled between rounds."""
    rounds = []
    before = probe.sample()
    for lo in range(0, max(len(s) for s in schedules), round_ops):
        logs, wall = run_clients(
            [s[lo:lo + round_ops] for s in schedules], client_fn)
        after = probe.sample()
        rounds.append(Round(logs, wall, (before + after) / 2.0))
        before = after
    return rounds
