"""Log-structured merge forest / partitioned b-tree (hypothesis 8).

The forest holds multiple *partitions*, each a sorted run over the full
key domain (as in LSM-trees, stepped-merge forests, and partitioned
b-trees).  Queries merge across partitions.  For order modification
the paper's aligned-segment argument applies: segment boundaries are
distinct values of the leading key columns, the *same* in every
partition, so each segment can be sorted independently — merging the
partitions' pre-existing runs within the segment.

Cross-partition run-head code derivation is not possible (each
partition's codes chain only within that partition), so ties between
rows of different partitions fall back to actual infix comparisons —
an honest, documented deviation counted by the shared statistics.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Sequence

from ..model import Schema, SortSpec, Table
from ..ovc.derive import derive_ovcs
from ..ovc.stats import ComparisonStats
from ..sorting.internal import tournament_sort
from ..sorting.merge import kway_merge


class LsmForest:
    """A forest of sorted partitions sharing one schema and sort order."""

    def __init__(self, schema: Schema, sort_spec: SortSpec) -> None:
        self.schema = schema
        self.sort_spec = sort_spec
        self._positions = sort_spec.positions(schema)
        self.partitions: list[Table] = []

    def __len__(self) -> int:
        return sum(len(p) for p in self.partitions)

    @property
    def partition_count(self) -> int:
        return len(self.partitions)

    def ingest(
        self, rows: Sequence[tuple], stats: ComparisonStats | None = None
    ) -> Table:
        """Sort a batch into a new partition (like an LSM memtable flush)."""
        stats = stats if stats is not None else ComparisonStats()
        sorted_rows, ovcs = tournament_sort(
            list(rows), self._positions, stats, self.sort_spec.directions
        )
        partition = Table(self.schema, sorted_rows, self.sort_spec, ovcs)
        self.partitions.append(partition)
        return partition

    def add_partition(self, table: Table) -> None:
        if table.schema != self.schema or table.sort_spec != self.sort_spec:
            raise ValueError("partition must match the forest's schema and order")
        self.partitions.append(table.with_ovcs())

    def scan_merged(
        self, stats: ComparisonStats | None = None
    ) -> Table:
        """Merge all partitions into one sorted stream (a full compaction
        view); offset-value codes in every partition decide most
        comparisons."""
        stats = stats if stats is not None else ComparisonStats()
        if not self.partitions:
            return Table(self.schema, [], self.sort_spec, [])
        runs = [(p.rows, p.ovcs) for p in self.partitions]
        rows, ovcs = kway_merge(
            runs, self._positions, stats, self.sort_spec.directions
        )
        return Table(self.schema, rows, self.sort_spec, ovcs)

    def compact(self, stats: ComparisonStats | None = None) -> Table:
        """Merge all partitions and replace them with the result."""
        merged = self.scan_merged(stats)
        self.partitions = [merged] if len(merged) else []
        return merged

    def aligned_segments(self, prefix_len: int) -> list[tuple]:
        """Distinct leading-prefix values across all partitions, sorted.

        These are the aligned segment boundaries of hypothesis 8: the
        same prefix value bounds a segment in every partition.
        """
        if prefix_len < 1 or prefix_len > self.sort_spec.arity:
            raise ValueError("prefix_len out of range")
        positions = self._positions[:prefix_len]
        seen: set[tuple] = set()
        for partition in self.partitions:
            for offset, _value in _prefix_heads(partition, prefix_len):
                row = partition.rows[offset]
                seen.add(tuple(row[p] for p in positions))
        return sorted(seen)

    def segment_slices(self, prefix_len: int) -> Iterator[tuple[tuple, list[tuple]]]:
        """Per aligned segment, the ``[lo, hi)`` slice in each partition.

        Partitions without rows for a segment contribute an empty
        slice.  Slices are located by binary search on the prefix — no
        row-by-row comparisons.
        """
        positions = self._positions[:prefix_len]
        keyed: list[list[tuple]] = [
            [tuple(row[p] for p in positions) for row in part.rows]
            for part in self.partitions
        ]
        for prefix in self.aligned_segments(prefix_len):
            slices = []
            for keys in keyed:
                lo = bisect.bisect_left(keys, prefix)
                hi = bisect.bisect_right(keys, prefix)
                slices.append((lo, hi))
            yield prefix, slices

    def modify_order_segmented(
        self,
        new_order: SortSpec,
        stats: ComparisonStats | None = None,
    ) -> Table:
        """Order modification across the forest (hypothesis 8).

        Requires a shared prefix between the forest's order and the new
        order.  Processes one aligned segment at a time: the segment's
        per-partition slices are themselves sorted tables, so the slices
        merge on the new order using each partition's own codes; within
        a partition slice, pre-existing runs are exploited through the
        ordinary single-table machinery.
        """
        from ..core.modify import modify_sort_order

        stats = stats if stats is not None else ComparisonStats()
        prefix_len = self.sort_spec.common_prefix_len(new_order)
        if prefix_len == 0:
            raise ValueError(
                "aligned-segment modification needs a shared key prefix"
            )
        out_rows: list[tuple] = []
        out_ovcs: list[tuple] = []
        new_positions = new_order.positions(self.schema)
        for _prefix, slices in self.segment_slices(prefix_len):
            per_partition: list[tuple[list[tuple], list[tuple]]] = []
            for part, (lo, hi) in zip(self.partitions, slices):
                if hi <= lo:
                    continue
                slice_table = Table(
                    self.schema,
                    part.rows[lo:hi],
                    self.sort_spec,
                    _reanchor_ovcs(part, lo, hi, self._positions),
                )
                modified = modify_sort_order(
                    slice_table, new_order, stats=stats
                )
                per_partition.append((modified.rows, modified.ovcs))
            if not per_partition:
                continue
            rows, ovcs = kway_merge(
                per_partition, new_positions, stats, new_order.directions
            )
            out_rows.extend(rows)
            out_ovcs.extend(ovcs)
        # Re-anchor codes at segment boundaries: each segment's first
        # row was coded as a table head; recode it against the previous
        # segment's last row (one comparison per segment).
        _fix_boundary_codes(
            out_rows, out_ovcs, new_positions, new_order.directions, stats
        )
        return Table(self.schema, out_rows, new_order, out_ovcs)


def _prefix_heads(partition: Table, prefix_len: int) -> Iterator[tuple]:
    """(row index, code) of each new distinct prefix in a partition —
    found from the partition's codes alone."""
    for i, (offset, value) in enumerate(partition.ovcs):
        if offset < prefix_len:
            yield i, (offset, value)


def _reanchor_ovcs(
    partition: Table, lo: int, hi: int, positions: Sequence[int]
) -> list[tuple]:
    """Codes for a partition slice: interior codes stay valid; the
    first row becomes a slice head coded as a fresh table head."""
    ovcs = list(partition.ovcs[lo:hi])
    if ovcs:
        first = partition.rows[lo]
        ovcs[0] = (0, first[positions[0]])
    return ovcs


def _fix_boundary_codes(
    rows: list[tuple],
    ovcs: list[tuple],
    positions: Sequence[int],
    directions: Sequence[bool],
    stats: ComparisonStats,
) -> None:
    """Recode, in the list ``ovcs``, every row after the first coded as
    a table head against its predecessor in ``rows``."""
    heads = [i for i, (offset, _v) in enumerate(ovcs) if i > 0 and offset == 0]
    for i in heads:
        pair = derive_ovcs(rows[i - 1 : i + 1], positions, directions, stats)
        ovcs[i] = pair[1]
