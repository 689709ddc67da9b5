"""Simulated paged storage with I/O accounting.

The paper's hypothesis 7 claims that merging runs pre-existing in a
storage structure saves the I/O that an external merge sort would spend
writing and re-reading initial runs.  Our experiments run in memory, so
"I/O" is an accounting fiction: a :class:`PageManager` counts the pages
and bytes that would cross the memory/storage boundary, charged per
row according to a simple size model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass
class IoStats:
    """Pages and bytes written to / read from simulated storage."""

    pages_written: int = 0
    pages_read: int = 0
    bytes_written: int = 0
    bytes_read: int = 0

    def __add__(self, other: "IoStats") -> "IoStats":
        return IoStats(
            self.pages_written + other.pages_written,
            self.pages_read + other.pages_read,
            self.bytes_written + other.bytes_written,
            self.bytes_read + other.bytes_read,
        )

    def __sub__(self, other: "IoStats") -> "IoStats":
        return IoStats(
            self.pages_written - other.pages_written,
            self.pages_read - other.pages_read,
            self.bytes_written - other.bytes_written,
            self.bytes_read - other.bytes_read,
        )

    def snapshot(self) -> "IoStats":
        return IoStats(
            self.pages_written,
            self.pages_read,
            self.bytes_written,
            self.bytes_read,
        )

    def __str__(self) -> str:
        return (
            f"IoStats(write: {self.pages_written:,} pages / "
            f"{self.bytes_written:,} B, read: {self.pages_read:,} pages / "
            f"{self.bytes_read:,} B)"
        )


def row_size_bytes(row: tuple) -> int:
    """Byte-size model: 8 bytes per integer column, actual length for
    strings/bytes, 8 bytes for anything else."""
    total = 0
    for value in row:
        if isinstance(value, str):
            total += len(value.encode("utf-8"))
        elif isinstance(value, (bytes, bytearray)):
            total += len(value)
        else:
            total += 8
    return total


class SpilledRun:
    """A sorted run written to simulated storage.

    Reading it back (iterating) charges page reads to the owning
    manager.  Rows and codes are retained in memory — only the
    accounting pretends otherwise.
    """

    def __init__(
        self,
        manager: "PageManager",
        rows: list[tuple],
        ovcs: list[tuple] | None,
        total_bytes: int,
        pages: int,
    ) -> None:
        self._manager = manager
        self.rows = rows
        self.ovcs = ovcs
        self.total_bytes = total_bytes
        self.pages = pages

    def __len__(self) -> int:
        return len(self.rows)

    def read(self) -> tuple[list[tuple], list[tuple] | None]:
        """Charge a full read of the run and return its contents."""
        self._manager.stats.pages_read += self.pages
        self._manager.stats.bytes_read += self.total_bytes
        return self.rows, self.ovcs

    def __iter__(self) -> Iterator[tuple]:
        rows, _ovcs = self.read()
        return iter(rows)


class PageManager:
    """Counts simulated page traffic; spills and reads back runs."""

    def __init__(self, page_bytes: int = 8192) -> None:
        if page_bytes < 1:
            raise ValueError("page size must be positive")
        self.page_bytes = page_bytes
        self.stats = IoStats()

    def spill_run(
        self, rows: Sequence[tuple], ovcs: Sequence[tuple] | None = None
    ) -> SpilledRun:
        """Write a sorted run out; charges page writes."""
        rows = list(rows)
        total = sum(row_size_bytes(r) for r in rows)
        pages = max(1, -(-total // self.page_bytes)) if rows else 0
        self.stats.pages_written += pages
        self.stats.bytes_written += total
        return SpilledRun(
            self, rows, list(ovcs) if ovcs is not None else None, total, pages
        )

    def charge_scan(self, rows: Sequence[tuple]) -> None:
        """Charge a read-only scan of rows living in storage."""
        total = sum(row_size_bytes(r) for r in rows)
        pages = max(1, -(-total // self.page_bytes)) if len(rows) else 0
        self.stats.pages_read += pages
        self.stats.bytes_read += total
