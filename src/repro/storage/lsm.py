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

from typing import Iterator, Sequence

from ..model import Schema, SortSpec, Table
from ..ovc.derive import codes_from_offsets, derive_ovcs
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
        """Distinct leading-prefix values across all partitions, in the
        forest's sort order.

        These are the aligned segment boundaries of hypothesis 8: the
        same prefix value bounds a segment in every partition.
        """
        return [prefix for prefix, _slices in self.segment_slices(prefix_len)]

    def segment_slices(self, prefix_len: int) -> Iterator[tuple[tuple, list[tuple]]]:
        """Per aligned segment, in the forest's sort order, its prefix
        value and the ``[lo, hi)`` slice in each partition.

        Partitions without rows for a segment contribute an empty
        slice.  Each partition's segments come from its codes alone
        (``Table._codes().segments``) — no row-by-row comparisons; only
        the segment heads' prefixes are keyed and sorted, on the
        forest's own (direction-normalized) key.
        """
        if prefix_len < 1 or prefix_len > self.sort_spec.arity:
            raise ValueError("prefix_len out of range")
        positions = self._positions[:prefix_len]
        key = self.sort_spec.prefix(prefix_len).key_for(self.schema)
        # Normalized prefix -> (raw prefix, slice in each partition).
        segments: dict[tuple, tuple[tuple, list[tuple]]] = {}
        empty = [(0, 0)] * len(self.partitions)
        for i, part in enumerate(self.partitions):
            for lo, hi in part._codes().segments(prefix_len):
                head = part.rows[lo]
                normalized = key(head)
                if normalized not in segments:
                    prefix = tuple(head[p] for p in positions)
                    segments[normalized] = (prefix, list(empty))
                segments[normalized][1][i] = (lo, hi)
        for normalized in sorted(segments):
            yield segments[normalized]

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
            runs = []
            for part, (lo, hi) in zip(self.partitions, slices):
                if hi <= lo:
                    continue
                # Interior codes stay valid; the slice's first row is
                # recoded as a table head.
                head = codes_from_offsets(
                    (part.rows[lo],), (0,), self._positions,
                    self.sort_spec.directions,
                )
                slice_table = Table(
                    self.schema, part.rows[lo:hi], self.sort_spec,
                    (*head, *part.ovcs[lo + 1 : hi]),
                )
                modified = modify_sort_order(slice_table, new_order, stats=stats)
                runs.append((modified.rows, modified.ovcs))
            rows, ovcs = kway_merge(
                runs, new_positions, stats, new_order.directions
            )
            if out_rows:
                # The segment's first row was coded as a table head;
                # recode it against the previous segment's last row
                # (one comparison per segment).
                ovcs[0] = derive_ovcs(
                    (out_rows[-1], rows[0]), new_positions,
                    new_order.directions, stats,
                )[1]
            out_rows.extend(rows)
            out_ovcs.extend(ovcs)
        return Table(self.schema, out_rows, new_order, out_ovcs)
