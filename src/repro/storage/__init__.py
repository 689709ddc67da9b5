"""Storage substrates: paged spill files, a prefix-truncated row store,
an RLE column store, a B+-tree, and an LSM-style forest.
"""

from .pages import IoStats, PageManager, SpilledRun
from .rowstore import PrefixTruncatedStore
from .colstore import ColumnStore
from .btree import BTree
from .lsm import LsmForest

__all__ = [
    "IoStats",
    "PageManager",
    "SpilledRun",
    "PrefixTruncatedStore",
    "ColumnStore",
    "BTree",
    "LsmForest",
]
