"""Disk spill: real files, not simulated pages.

The storage layer's :class:`~repro.storage.pages.PageManager` *accounts
for* hypothetical I/O while keeping everything in memory — the right
tool for the paper's comparison-economy experiments, and useless for an
actual memory budget.  :class:`SpillManager` is the real thing, used by
the order cache for entries its budget cannot hold: a
sorted run handed to :meth:`SpillManager.spill` is pickled to a file in
the spill directory and its in-memory lists are released; reading the
handle back restores it.  A file is written once and read once, so
plain pickle files (no paging, no random access) are the whole story;
a cache entry is not: its file goes on rehydrate and a new one is
written on every re-spill (``serve_churn``: 178 spills, 134
rehydrates).  Keeping the file across rehydrates bought no hit latency
in 4 alternated probe pairs (EXPERIMENTS.md, "A cached order leaves the
cache at C speed").

Every spill and read is visible: spans ``exec.spill`` /
``exec.spill.read`` and counters ``exec.spill.runs`` /
``exec.spill.bytes_written`` / ``exec.spill.bytes_read``.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import uuid

from ..obs import LOG, METRICS, TRACER


class SpillHandle:
    """One spilled run: a file plus enough metadata to restore it."""

    __slots__ = ("path", "n_rows", "n_bytes")

    def __init__(self, path: str, n_rows: int, n_bytes: int) -> None:
        self.path = path
        self.n_rows = n_rows
        self.n_bytes = n_bytes

    def read(self) -> tuple[list[tuple], list[tuple] | None]:
        """Load the run back; the file stays until :meth:`release`."""
        with TRACER.span(
            "exec.spill.read", rows=self.n_rows, bytes=self.n_bytes
        ):
            with open(self.path, "rb") as fh:
                rows, ovcs = pickle.load(fh)
        if METRICS.enabled:
            METRICS.counter("exec.spill.bytes_read").inc(self.n_bytes)
        return rows, ovcs

    def release(self) -> None:
        """Delete the backing file (idempotent)."""
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


class SpillManager:
    """Owns one spill directory and its spill/restore traffic.

    ``spill_dir`` is the *parent* directory (system temp dir when
    ``None``); each manager creates a private ``repro-spill-*``
    subdirectory so two managers never collide, and
    :meth:`cleanup` (or context-manager exit) removes it wholesale.
    """

    def __init__(self, spill_dir: str | None = None) -> None:
        self._parent = spill_dir
        self._dir: str | None = None

    @property
    def directory(self) -> str:
        """The private spill directory, created on first use."""
        if self._dir is None:
            parent = self._parent or tempfile.gettempdir()
            os.makedirs(parent, exist_ok=True)
            self._dir = tempfile.mkdtemp(prefix="repro-spill-", dir=parent)
        return self._dir

    def spill(
        self,
        rows: list[tuple],
        ovcs: list[tuple] | None,
        category: str = "run",
    ) -> SpillHandle:
        """Write one sorted run out; returns the handle to restore it."""
        path = os.path.join(self.directory, f"{category}-{uuid.uuid4().hex}.pkl")
        with TRACER.span("exec.spill", rows=len(rows), category=category):
            with open(path, "wb") as fh:
                pickle.dump((rows, ovcs), fh, protocol=pickle.HIGHEST_PROTOCOL)
            n_bytes = os.path.getsize(path)
        if METRICS.enabled:
            METRICS.counter("exec.spill.runs").inc()
            METRICS.counter("exec.spill.bytes_written").inc(n_bytes)
        if LOG.enabled:
            LOG.event(
                "exec.spill",
                rows=len(rows),
                bytes=n_bytes,
                category=category,
            )
        return SpillHandle(path, len(rows), n_bytes)

    def cleanup(self) -> None:
        """Remove the spill directory and everything in it (idempotent)."""
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    def __enter__(self) -> "SpillManager":
        return self

    def __exit__(self, *exc: object) -> None:
        self.cleanup()
