"""Sampling profiler with collapsed-stack (flamegraph) export.

Deterministic tracing answers *which phase* was slow; a statistical
profiler answers *which code* inside the phase.  This one needs no
dependencies: a sampler interrupts the process every
``interval_s`` seconds, walks the Python stack(s) via
``sys._current_frames()``, and counts identical stacks.  The output is
the collapsed-stack format every flamegraph tool eats directly::

    repro.sorting.tournament:tournament_sort;repro.ovc.compare:compare 412

    $ python -m repro bench --log2-rows 14 --profile /tmp/bench.folded
    $ flamegraph.pl /tmp/bench.folded > bench.svg

Two timers:

* ``mode="thread"`` (default) — a daemon thread samples the *other*
  threads; works everywhere (any thread, any platform) and observes
  wall-clock time, so blocking I/O and lock waits show up.
* ``mode="signal"`` — ``signal.setitimer(ITIMER_PROF)`` + ``SIGPROF``
  samples on *CPU* time; main-thread-only and POSIX-only, but immune
  to wall-clock skew from sleeps.

Sampling cost is one stack walk per tick — at the default 5 ms
interval that is a few hundred walks per second of profiled work,
invisible next to the work itself.  The profiler is a plain object,
not a singleton: profile exactly what you wrap (the ``--profile FILE``
CLI flag wraps one experiment run).
"""

from __future__ import annotations

import signal
import sys
import threading
from collections import Counter
from typing import Any

from .metrics import METRICS

#: Default wall-clock sampling interval: 5 ms == 200 Hz.
DEFAULT_INTERVAL_S = 0.005

#: Deepest stack recorded per sample (frames beyond are dropped from
#: the *root* end, keeping the hot leaves).
MAX_DEPTH = 128


def _frame_label(frame: Any) -> str:
    """``module:function`` — stable across runs, short enough to read."""
    mod = frame.f_globals.get("__name__", "?")
    name = frame.f_code.co_name
    # The collapsed format reserves ';' (stack separator) and ' '
    # (count separator); scrub them defensively.
    return f"{mod}:{name}".replace(";", ",").replace(" ", "_")


def _collapse(frame: Any) -> tuple[str, ...]:
    """Walk a leaf frame to the root; return root-first labels."""
    stack: list[str] = []
    while frame is not None and len(stack) < MAX_DEPTH:
        stack.append(_frame_label(frame))
        frame = frame.f_back
    stack.reverse()
    return tuple(stack)


class SamplingProfiler:
    """Collect collapsed stack samples from a running process.

    Use as a context manager or via :meth:`start` / :meth:`stop`::

        prof = SamplingProfiler(interval_s=0.002)
        with prof:
            run_workload()
        prof.write_collapsed("profile.folded")

    ``all_threads`` (thread mode only) samples every live thread
    instead of just the one that called :meth:`start`.
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        mode: str = "thread",
        all_threads: bool = False,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        if mode not in ("thread", "signal"):
            raise ValueError(f"mode must be 'thread' or 'signal', got {mode!r}")
        self.interval_s = interval_s
        self.mode = mode
        self.all_threads = all_threads
        self.counts: Counter[tuple[str, ...]] = Counter()
        self.n_samples = 0
        self._running = False
        self._stop_event = threading.Event()
        self._sampler: threading.Thread | None = None
        self._target_ident: int | None = None
        self._previous_handler: Any = None

    # ----------------------------------------------------------- lifecycle

    def start(self) -> "SamplingProfiler":
        if self._running:
            return self
        self.counts.clear()
        self.n_samples = 0
        if self.mode == "signal":
            if threading.current_thread() is not threading.main_thread():
                raise ValueError(
                    "signal-mode profiling must start on the main thread"
                )
            self._previous_handler = signal.signal(
                signal.SIGPROF, self._on_signal
            )
            signal.setitimer(
                signal.ITIMER_PROF, self.interval_s, self.interval_s
            )
        else:
            self._target_ident = threading.get_ident()
            self._stop_event.clear()
            self._sampler = threading.Thread(
                target=self._sample_loop, name="repro-profiler", daemon=True
            )
            self._sampler.start()
        self._running = True
        return self

    def stop(self) -> "SamplingProfiler":
        if not self._running:
            return self
        self._running = False
        if self.mode == "signal":
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, self._previous_handler or signal.SIG_DFL)
            self._previous_handler = None
        else:
            self._stop_event.set()
            if self._sampler is not None:
                self._sampler.join(timeout=5)
                self._sampler = None
        if METRICS.enabled:
            METRICS.counter("profile.samples").inc(self.n_samples)
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------ sampling

    def _sample_loop(self) -> None:
        me = threading.get_ident()
        while not self._stop_event.wait(self.interval_s):
            frames = sys._current_frames()
            if self.all_threads:
                targets = [
                    (ident, frame)
                    for ident, frame in frames.items()
                    if ident != me
                ]
            else:
                frame = frames.get(self._target_ident)
                targets = [(self._target_ident, frame)] if frame is not None else []
            for _ident, frame in targets:
                self.counts[_collapse(frame)] += 1
                self.n_samples += 1

    def _on_signal(self, _signum: int, frame: Any) -> None:
        if frame is not None:
            self.counts[_collapse(frame)] += 1
            self.n_samples += 1

    # -------------------------------------------------------------- export

    def collapsed(self) -> str:
        """The samples in collapsed-stack format, hottest stacks first."""
        lines = [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(
                self.counts.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, path: str) -> int:
        """Write :meth:`collapsed` output to ``path``; returns sample count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.collapsed())
        return self.n_samples

    def top(self, n: int = 10) -> list[tuple[str, int]]:
        """The ``n`` hottest *leaf* functions by inclusive sample count."""
        leaves: Counter[str] = Counter()
        for stack, count in self.counts.items():
            if stack:
                leaves[stack[-1]] += count
        return leaves.most_common(n)


def read_collapsed(path: str) -> dict[tuple[str, ...], int]:
    """Parse a collapsed-stack file back into ``{stack: count}``."""
    out: dict[tuple[str, ...], int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            stack_text, _, count = line.rpartition(" ")
            out[tuple(stack_text.split(";"))] = int(count)
    return out
