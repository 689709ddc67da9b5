"""Every operator past ``Sort`` against a plain-Python oracle.

Each operator runs twice per case: over a coded child and over the same
rows with their codes stripped.  Inputs are ints, floats and strings,
ascending and descending orders where the operator accepts them, 0 rows,
1 row, heavy ties and a spread of keys, all from fixed seeds.  Rows must
equal ``sorted()`` / ``itertools.groupby`` / set and dict oracles, every
coded output must pass :func:`repro.testing.assert_table_valid`, and the
comparisons each (operator, coded or not) spends over all cases are
pinned exactly.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.engine.aggregate import Distinct, GroupBy
from repro.engine.merge_join import MergeJoin
from repro.engine.misc import Filter
from repro.engine.operators import Operator
from repro.engine.pivot import Pivot
from repro.engine.scans import TableScan
from repro.engine.set_ops import Except, Intersect, UnionAll, UnionDistinct
from repro.model import Schema, SortSpec, Table
from repro.ovc.stats import ComparisonStats
from repro.testing import assert_table_valid

SCHEMA = Schema.of("A", "B", "C")
ASC = SortSpec.of("A", "B", "C")
DESC = SortSpec.of("A DESC", "B", "C DESC")
PREFIX = SortSpec.of("A", "B")

_VALUES = {
    "int": lambda rng, d: rng.randrange(d),
    "float": lambda rng, d: rng.randrange(d) / 4,
    "str": lambda rng, d: "k" + str(rng.randrange(d) * 7),
}
# (rows, key domain, seeds): empty, one row, heavy ties, spread keys.
_SHAPES = ((0, 2, (0,)), (1, 3, (1,)), (30, 2, (2, 3, 4)), (30, 6, (5, 6, 7)))


def _rows(kind: str, n: int, domain: int, seed: int) -> list[tuple]:
    rng = random.Random(seed)
    value = _VALUES[kind]
    return [tuple(value(rng, domain) for _c in range(3)) for _i in range(n)]


def _cases():
    """``(left rows, right rows)`` per kind, shape and seed."""
    for kind in _VALUES:
        for n, domain, seeds in _SHAPES:
            for seed in seeds:
                yield (
                    _rows(kind, n, domain, seed),
                    _rows(kind, n + seed % 3, domain, seed + 100),
                )


CASES = list(_cases())


class Uncoded(Operator):
    """The child's rows and order with every code stripped."""

    def __init__(self, child: Operator) -> None:
        super().__init__(child.schema, child.ordering, child.stats)
        self._child = child

    def __iter__(self):
        for row, _ovc in self._child:
            yield row, None


def _child(rows, spec: SortSpec, coded: bool) -> Operator:
    scan = TableScan(Table(SCHEMA, sorted(rows, key=spec.key_for(SCHEMA)), spec))
    return scan if coded else Uncoded(scan)


def _keep(rows: list[tuple]):
    """A predicate keeping rows by a third of the ``C`` values present."""
    kept = frozenset(sorted({r[2] for r in rows})[::3])
    return lambda row: row[2] in kept


def _heads(rows, key) -> dict:
    """Key -> first row of its group, in row order."""
    return {k: next(g) for k, g in itertools.groupby(rows, key)}


def _run(op: Operator, coded: bool) -> list[tuple]:
    """Consume ``op`` once; check its codes and return its rows."""
    out = list(op)
    rows = [row for row, _ovc in out]
    ovcs = [ovc for _row, ovc in out]
    if coded and not isinstance(op, UnionDistinct):
        assert None not in ovcs
        assert_table_valid(Table(op.schema, rows, op.ordering, ovcs))
    else:
        assert ovcs == [None] * len(ovcs)
    return rows


def _group_by(left, _right, coded):
    aggs = [("count", None), ("min", "C"), ("max", "C"), ("first", "C"), ("last", "C")]
    for width in (1, 2):
        ordered = sorted(left)
        op = GroupBy(_child(left, ASC, coded), ["A", "B"][:width], aggs)
        want = []
        for key, group in itertools.groupby(ordered, lambda r: r[:width]):
            cs = [r[2] for r in group]
            want.append(key + (len(cs), min(cs), max(cs), cs[0], cs[-1]))
        yield op, want


def _distinct(left, _right, coded):
    for spec, names in ((ASC, None), (DESC, None), (DESC, ["A DESC"]), (PREFIX, None)):
        key = spec.key_for(SCHEMA)
        ordered = sorted(left, key=key)
        op = Distinct(_child(left, spec, coded), names)
        width = len(names) if names else spec.arity
        yield op, list(_heads(ordered, lambda r: key(r)[:width]).values())


def _pivot(left, _right, coded):
    values = sorted({r[1] for r in left})
    op = Pivot(_child(left, ASC, coded), ["A"], "B", "C", values, agg="max")
    want = []
    for (a,), group in itertools.groupby(sorted(left), lambda r: r[:1]):
        cells: dict = {}
        for _a, b, c in group:
            cells[b] = c if b not in cells else max(cells[b], c)
        want.append((a,) + tuple(cells.get(v) for v in values))
    yield op, want


def _join_oracle(left, right, width):
    by_key: dict = {}
    for r in sorted(right):
        by_key.setdefault(r[:width], []).append(r)
    return [l + r for l in sorted(left) for r in by_key.get(l[:width], ())]


def _merge_join(left, right, coded):
    for width in (1, 2):
        keys = ["A", "B"][:width]
        op = MergeJoin(_child(left, ASC, coded), _child(right, ASC, coded), keys, keys)
        yield op, _join_oracle(left, right, width)


def _union_all(left, right, coded):
    for spec in (ASC, DESC, PREFIX):
        key = spec.key_for(SCHEMA)
        op = UnionAll(_child(left, spec, coded), _child(right, spec, coded))
        yield op, sorted(sorted(left, key=key) + sorted(right, key=key), key=key)


def _set_op(kind):
    def cases(left, right, coded):
        for spec in (ASC, DESC, PREFIX):
            key = spec.key_for(SCHEMA)
            lheads = _heads(sorted(left, key=key), key)
            rheads = _heads(sorted(right, key=key), key)
            op = kind(_child(left, spec, coded), _child(right, spec, coded))
            if kind is Intersect:
                want = [h for k, h in lheads.items() if k in rheads]
            elif kind is Except:
                want = [h for k, h in lheads.items() if k not in rheads]
            else:
                want = [
                    lheads.get(k, rheads.get(k))
                    for k in sorted(lheads.keys() | rheads.keys())
                ]
            yield op, want

    return cases


def _filter(left, _right, coded):
    for spec in (ASC, DESC, PREFIX):
        keep = _keep(left)
        op = Filter(_child(left, spec, coded), keep)
        yield op, [r for r in sorted(left, key=spec.key_for(SCHEMA)) if keep(r)]


def _filter_then_intersect(left, right, coded):
    for spec in (ASC, DESC):
        key = spec.key_for(SCHEMA)
        lkeep, rkeep = _keep(left), _keep(right)
        op = Intersect(
            Filter(_child(left, spec, coded), lkeep),
            Filter(_child(right, spec, coded), rkeep),
        )
        rkeys = {key(r) for r in right if rkeep(r)}
        kept = sorted((r for r in left if lkeep(r)), key=key)
        yield op, [h for k, h in _heads(kept, key).items() if k in rkeys]


def _filter_then_merge_join(left, right, coded):
    lkeep, rkeep = _keep(left), _keep(right)
    op = MergeJoin(
        Filter(_child(left, ASC, coded), lkeep),
        Filter(_child(right, ASC, coded), rkeep),
        ["A"],
        ["A"],
    )
    kept_left = [r for r in left if lkeep(r)]
    yield op, _join_oracle(kept_left, [r for r in right if rkeep(r)], 1)


OPERATORS = {
    "GroupBy": _group_by,
    "Distinct": _distinct,
    "Pivot": _pivot,
    "MergeJoin": _merge_join,
    "UnionAll": _union_all,
    "UnionDistinct": _set_op(UnionDistinct),
    "Intersect": _set_op(Intersect),
    "Except": _set_op(Except),
    "Filter": _filter,
    "Filter-Intersect": _filter_then_intersect,
    "Filter-MergeJoin": _filter_then_merge_join,
}

#: Comparisons each operator spends over all of ``CASES``, as
#: ``(row, column, ovc)`` comparisons.  Coded inputs compare only to
#: align two inputs (and inside ``UnionAll``'s merge); uncoded inputs
#: compare each row with its group's head.
PINNED = {
    ("GroupBy", True): (0, 0, 0),
    ("GroupBy", False): (1044, 1512, 0),
    ("Distinct", True): (0, 0, 0),
    ("Distinct", False): (2088, 4134, 0),
    ("Pivot", True): (0, 0, 0),
    ("Pivot", False): (522, 522, 0),
    ("MergeJoin", True): (378, 626, 0),
    # The join reads nothing past its first exhausted input.
    ("MergeJoin", False): (2501, 3702, 0),
    ("UnionAll", True): (3173, 480, 3173),
    ("UnionAll", False): (3173, 6978, 0),
    ("UnionDistinct", True): (1421, 3013, 0),
    ("UnionDistinct", False): (4616, 10396, 0),
    ("Intersect", True): (1421, 3013, 0),
    ("Intersect", False): (4616, 10396, 0),
    ("Except", True): (1421, 3013, 0),
    ("Except", False): (4616, 10396, 0),
    ("Filter", True): (0, 0, 0),
    ("Filter", False): (0, 0, 0),
    ("Filter-Intersect", True): (373, 703, 0),
    ("Filter-Intersect", False): (1211, 2649, 0),
    ("Filter-MergeJoin", True): (75, 75, 0),
    ("Filter-MergeJoin", False): (494, 494, 0),
}


@pytest.mark.parametrize("coded", [True, False], ids=["coded", "uncoded"])
@pytest.mark.parametrize("name", list(OPERATORS))
def test_operator_matches_its_oracle(name, coded):
    spent = ComparisonStats()
    for left, right in CASES:
        for op, want in OPERATORS[name](left, right, coded):
            assert _run(op, coded) == want
            spent = spent + op.stats
    assert (
        spent.row_comparisons,
        spent.column_comparisons,
        spent.ovc_comparisons,
    ) == PINNED[(name, coded)]


def _alignment_cost(lkeys: list[tuple], rkeys: list[tuple]) -> tuple[int, int]:
    """Row and column comparisons of one walk over two distinct-key
    lists, one comparison per visited pair, stopping at the first
    exhausted side."""
    i = j = pairs = columns = 0
    while i < len(lkeys) and j < len(rkeys):
        a, b = lkeys[i], rkeys[j]
        pairs += 1
        differ = [n for n, (x, y) in enumerate(zip(a, b)) if x != y]
        columns += differ[0] + 1 if differ else len(a)
        i += a <= b
        j += a >= b
    return pairs, columns


@pytest.mark.parametrize("width", [1, 2])
def test_coded_merge_join_compares_once_per_aligned_group_pair(width):
    """No column is compared inside a coded input: every comparison is
    one key comparison of an aligned (left group, right group) pair."""
    for left, right in CASES:
        keys = ["A", "B"][:width]
        op = MergeJoin(_child(left, ASC, True), _child(right, ASC, True), keys, keys)
        list(op)
        lkeys = list(dict.fromkeys(r[:width] for r in sorted(left)))
        rkeys = list(dict.fromkeys(r[:width] for r in sorted(right)))
        pairs, columns = _alignment_cost(lkeys, rkeys)
        assert (op.stats.row_comparisons, op.stats.column_comparisons) == (
            pairs,
            columns,
        )
