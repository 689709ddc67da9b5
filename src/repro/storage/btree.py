"""An in-memory B+-tree over multi-column keys.

The tree indexes full rows (compound keys, as in the paper's Figure 4
example of pairs sorted on ``A,B``).  Leaves keep, next to each row,
its offset-value code relative to the predecessor *in the tree* —
computed when the row is written (bulk load or insert), so ordered
scans supply codes without any comparison at read time: "scans of
b-trees with prefix truncation can readily supply offset-value codes".

Features used by the experiments:

* bulk load from a sorted table and incremental insert (with split);
* point and range search;
* full ordered scans yielding ``(row, ovc)``;
* MDAM-style *distinct-prefix cursors*: one cursor per distinct value
  of the first ``k`` key columns — exactly the pre-existing runs that
  Figure 4 merges straight out of the index;
* node-access accounting (each node touched counts as a page read).
"""

from __future__ import annotations

import bisect
from typing import Iterator

from ..model import Schema, SortSpec, Table, normalize_value
from ..ovc.stats import ComparisonStats


class _Node:
    __slots__ = ("leaf", "keys", "children", "rows", "ovcs", "next")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        self.keys: list = []  # separator keys (internal) or row keys (leaf)
        self.children: list["_Node"] = []
        self.rows: list[tuple] = []  # leaf payload
        self.ovcs: list[tuple] = []  # leaf codes, parallel to rows
        self.next: "_Node | None" = None


class BTree:
    """B+-tree with linked leaves and cached offset-value codes."""

    def __init__(
        self,
        schema: Schema,
        sort_spec: SortSpec,
        order: int = 64,
    ) -> None:
        if order < 4:
            raise ValueError("order must be at least 4")
        self.schema = schema
        self.sort_spec = sort_spec
        self.order = order
        self._key_positions = sort_spec.positions(schema)
        self._directions = sort_spec.directions
        self._arity = sort_spec.arity
        self._root = _Node(leaf=True)
        self._first_leaf = self._root
        self._size = 0
        self.node_reads = 0
        self.height = 1

    # ------------------------------------------------------------------
    # Key handling

    def _key(self, row: tuple) -> tuple:
        positions = self._key_positions
        if all(self._directions):
            return tuple(row[p] for p in positions)
        return tuple(
            normalize_value(row[p], asc)
            for p, asc in zip(positions, self._directions)
        )

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def bulk_load(
        cls,
        table: Table,
        order: int = 64,
    ) -> "BTree":
        """Build from a sorted table; leaf codes come from the table's
        codes (or are derived once here)."""
        if table.sort_spec is None:
            raise ValueError("bulk load requires a sorted table")
        table = table.with_ovcs()
        tree = cls(table.schema, table.sort_spec, order)
        cap = order
        leaves: list[_Node] = []
        for start in range(0, len(table.rows), max(cap // 2, 1)):
            node = _Node(leaf=True)
            node.rows = list(table.rows[start : start + max(cap // 2, 1)])
            node.ovcs = list(table.ovcs[start : start + max(cap // 2, 1)])
            node.keys = [tree._key(r) for r in node.rows]
            leaves.append(node)
        if not leaves:
            return tree
        for a, b in zip(leaves, leaves[1:]):
            a.next = b
        tree._first_leaf = leaves[0]
        tree._size = len(table.rows)
        # Build internal levels bottom-up.
        level = leaves
        while len(level) > 1:
            parents: list[_Node] = []
            for start in range(0, len(level), cap):
                group = level[start : start + cap]
                parent = _Node(leaf=False)
                parent.children = group
                parent.keys = [tree._min_key(c) for c in group[1:]]
                parents.append(parent)
            level = parents
            tree.height += 1
        tree._root = level[0]
        return tree

    def _min_key(self, node: _Node) -> tuple:
        while not node.leaf:
            node = node.children[0]
        return node.keys[0]

    # ------------------------------------------------------------------
    # Insert

    def insert(self, row: tuple, stats: ComparisonStats | None = None) -> None:
        """Insert one row, refreshing the cached codes around it."""
        key = self._key(row)
        split = self._insert(self._root, key, row, stats)
        if split is not None:
            sep_key, right = split
            new_root = _Node(leaf=False)
            new_root.children = [self._root, right]
            new_root.keys = [sep_key]
            self._root = new_root
            self.height += 1
        self._size += 1

    def _insert(self, node: _Node, key: tuple, row: tuple, stats):
        self.node_reads += 1
        if node.leaf:
            i = bisect.bisect_right(node.keys, key)
            node.keys.insert(i, key)
            node.rows.insert(i, row)
            node.ovcs.insert(i, (0, key[0]))  # placeholder, fixed below
            self._refresh_leaf_codes(node, i, stats)
            if len(node.rows) > self.order:
                return self._split_leaf(node)
            return None
        i = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[i], key, row, stats)
        if split is None:
            return None
        sep_key, right = split
        node.keys.insert(i, sep_key)
        node.children.insert(i + 1, right)
        if len(node.children) > self.order:
            return self._split_internal(node)
        return None

    def _refresh_leaf_codes(self, node: _Node, i: int, stats) -> None:
        """Recompute the code of entry ``i`` and its successor."""
        local = stats if stats is not None else ComparisonStats()
        prev_key = self._predecessor_key(node, i)
        node.ovcs[i] = self._code_against(prev_key, node.keys[i], local)
        succ = self._successor(node, i)
        if succ is not None:
            succ_node, j = succ
            succ_node.ovcs[j] = self._code_against(
                node.keys[i], succ_node.keys[j], local
            )

    def _predecessor_key(self, node: _Node, i: int) -> tuple | None:
        if i > 0:
            return node.keys[i - 1]
        # Walk leaves from the front; fine for tests and moderate sizes.
        prev = None
        leaf = self._first_leaf
        while leaf is not None and leaf is not node:
            if leaf.keys:
                prev = leaf.keys[-1]
            leaf = leaf.next
        return prev

    def _successor(self, node: _Node, i: int):
        if i + 1 < len(node.keys):
            return node, i + 1
        nxt = node.next
        while nxt is not None and not nxt.keys:
            nxt = nxt.next
        if nxt is None:
            return None
        return nxt, 0

    def _code_against(self, prev_key, key, stats: ComparisonStats) -> tuple:
        if prev_key is None:
            return (0, key[0])
        arity = self._arity
        for k in range(arity):
            stats.column_comparisons += 1
            if prev_key[k] != key[k]:
                return (k, key[k])
        return (arity, 0)

    def _split_leaf(self, node: _Node):
        mid = len(node.rows) // 2
        right = _Node(leaf=True)
        right.keys = node.keys[mid:]
        right.rows = node.rows[mid:]
        right.ovcs = node.ovcs[mid:]
        node.keys = node.keys[:mid]
        node.rows = node.rows[:mid]
        node.ovcs = node.ovcs[:mid]
        right.next = node.next
        node.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Node):
        mid = len(node.children) // 2
        right = _Node(leaf=False)
        sep = node.keys[mid - 1]
        right.children = node.children[mid:]
        right.keys = node.keys[mid:]
        node.children = node.children[:mid]
        node.keys = node.keys[: mid - 1]
        return sep, right

    # ------------------------------------------------------------------
    # Search and scans

    def __len__(self) -> int:
        return self._size

    def _descend_to_leaf(self, key: tuple) -> _Node:
        node = self._root
        while not node.leaf:
            self.node_reads += 1
            i = bisect.bisect_right(node.keys, key)
            node = node.children[i]
        self.node_reads += 1
        return node

    def search(self, row: tuple) -> bool:
        """Exact-row membership."""
        key = self._key(row)
        leaf = self._descend_to_leaf(key)
        i = bisect.bisect_left(leaf.keys, key)
        return i < len(leaf.keys) and leaf.keys[i] == key

    def scan(self) -> Iterator[tuple[tuple, tuple]]:
        """Full ordered scan yielding ``(row, ovc)`` — codes are read
        from the leaves, never recomputed."""
        leaf = self._first_leaf
        while leaf is not None:
            self.node_reads += 1
            for row, ovc in zip(leaf.rows, leaf.ovcs):
                yield row, ovc
            leaf = leaf.next

    def to_table(self) -> Table:
        rows: list[tuple] = []
        ovcs: list[tuple] = []
        for row, ovc in self.scan():
            rows.append(row)
            ovcs.append(ovc)
        return Table(self.schema, rows, self.sort_spec, ovcs)

    # ------------------------------------------------------------------
    # MDAM-style skip scan (Figure 4's per-run cursors)

    def distinct_prefixes(self, prefix_len: int) -> list[tuple]:
        """Distinct values of the first ``prefix_len`` key columns,
        found by repeated seeks (not a full scan)."""
        if not 1 <= prefix_len <= self._arity:
            raise ValueError("prefix_len out of range")
        result: list[tuple] = []
        probe: tuple | None = None
        while True:
            leaf, i = self._seek_after_prefix(probe, prefix_len)
            if leaf is None:
                return result
            prefix = leaf.keys[i][:prefix_len]
            result.append(prefix)
            probe = prefix

    def _seek_after_prefix(self, prefix: tuple | None, prefix_len: int):
        """Position of the first key whose prefix exceeds ``prefix``
        (or the first key overall when prefix is None)."""
        if prefix is None:
            leaf = self._first_leaf
            while leaf is not None and not leaf.keys:
                leaf = leaf.next
            self.node_reads += 1
            return (leaf, 0) if leaf is not None else (None, 0)
        # Seek the smallest key strictly greater than every key sharing
        # the prefix: descend with an upper-bound probe.
        probe = tuple(prefix) + (_Top(),) * (self._arity - prefix_len)
        leaf = self._descend_to_leaf(probe)
        i = bisect.bisect_right(leaf.keys, probe)
        while leaf is not None and i >= len(leaf.keys):
            leaf = leaf.next
            i = 0
        if leaf is None:
            return None, 0
        return leaf, i

    def prefix_run_cursors(
        self, prefix_len: int
    ) -> list[Iterator[tuple[tuple, tuple]]]:
        """One ``(row, ovc)`` cursor per distinct prefix value — the
        pre-existing runs of Figure 4, ready for the merge logic."""

        def cursor(leaf: _Node, i: int, prefix: tuple):
            while leaf is not None:
                while i < len(leaf.keys):
                    if leaf.keys[i][:prefix_len] != prefix:
                        return
                    yield leaf.rows[i], leaf.ovcs[i]
                    i += 1
                leaf = leaf.next
                self.node_reads += 1
                i = 0

        cursors = []
        probe: tuple | None = None
        while True:
            leaf, i = self._seek_after_prefix(probe, prefix_len)
            if leaf is None:
                return cursors
            prefix = leaf.keys[i][:prefix_len]
            cursors.append(cursor(leaf, i, prefix))
            probe = prefix


class _Top:
    """Sorts above every real value (probe sentinel for skip scans)."""

    __slots__ = ()

    def __lt__(self, other) -> bool:
        return False

    def __gt__(self, other) -> bool:
        return not isinstance(other, _Top)

    def __le__(self, other) -> bool:
        return isinstance(other, _Top)

    def __ge__(self, other) -> bool:
        return True

    def __eq__(self, other) -> bool:
        return isinstance(other, _Top)

    def __hash__(self) -> int:
        return hash("_Top")
