"""Fast-path executor: strategy dispatch over the batch kernels.

:func:`fast_modify` is the uninstrumented twin of the strategy branches
in :func:`repro.core.modify.modify_sort_order`: same plan, same
segment boundaries (from code offsets alone), same output — rows *and*
offset-value codes bit-identical to the reference engine — but executed
by the kernels in :mod:`repro.fastpath.kernels` over packed keys.

Every entry point binds its input through :func:`_bind`: the key
columns' fields (:mod:`repro.fastpath.packed` — remembered on the table
when the key source is a table's own rows, built for the call
otherwise) are packed once and shared by every segment.  When every
output key column is ascending, fields and kernels read key values
straight out of the source rows; otherwise the keys are projected and
normalized up front (:func:`project_keys`).

A stable sort's result is a permutation of its input, and the kernels
have it in hand before they gather a row.  :func:`fast_modify` and
:func:`fast_sort` append it to the caller's ``perm`` list (indices into
the input rows, parallel to the output) when given one — the order
cache stores that, not a second row list — and skip it otherwise.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from operator import itemgetter
from typing import Callable, Sequence

from ..core.analysis import ModificationPlan, Strategy
from ..core.classify import code_offsets, head_positions, split_segments
from ..model import SortSpec, Table
from ..obs import TRACER
from ..ovc.derive import project_ovcs
from ..sorting.merge import _key_projector
from .kernels import CHUNK_MIN_ROWS_PER_HEAD, fast_merge_runs, fast_sort_segment
from .packed import key_fields, pack_fields, table_fields


def project_keys(
    rows: Sequence[tuple],
    positions: Sequence[int],
    directions: Sequence[bool],
) -> list[tuple]:
    """All rows' normalized sort-key tuples, batch-projected.

    The all-ascending common case runs through ``operator.itemgetter``
    (no per-row Python frame); mixed directions fall back to the shared
    normalizing projector.
    """
    if all(directions):
        if len(positions) == 1:
            pos = positions[0]
            return [(row[pos],) for row in rows]
        get = itemgetter(*positions)
        return list(map(get, rows))
    project = _key_projector(positions, directions)
    return [project(row) for row in rows]


def _bind(
    rows: Sequence[tuple],
    ovcs: Sequence[tuple] | None,
    positions: Sequence[int],
    directions: Sequence[bool],
    plan: ModificationPlan | None,
    strategy: Strategy,
    table: Table | None = None,
    heads: Sequence[int] | None = None,
) -> Callable[..., None]:
    """Pack the key once; return ``strategy``'s kernel bound to this
    input as ``run(lo, hi, out_rows, out_ovcs, out_perm=None)``.

    All-ascending keys need no normalization, so the rows themselves
    serve as the key source (``colpos[d]`` maps key column ``d`` to its
    row index), no per-row key tuples are built, and with ``table``
    (whose rows they are) the column fields are the table's remembered
    ones.  Any descending column forces the projected-tuple path
    (``colpos[d] == d``).  ``heads`` are the merge strategies' head
    positions over the whole input when the caller already has them
    (:func:`repro.core.classify.head_positions`).
    """
    k_out = len(positions)
    merging = strategy in (Strategy.MERGE_RUNS, Strategy.COMBINED)
    # Segment-local strategies take the shared prefix as given.
    p = (
        plan.prefix_len
        if strategy in (Strategy.SEGMENT_SORT, Strategy.COMBINED) else 0
    )
    start = min(p, k_out)
    # Runs are sorted on the output columns up to the merge-key
    # boundary: that restricted key is all a merge compares.  Without
    # segments, runs are distinct (P, X) combinations and it starts at
    # column 0.
    stop = plan.prefix_len + plan.merge_len if merging else k_out
    if all(directions):
        keysrc = rows
        colpos = list(positions)
        if table is not None:
            fields = table_fields(table, colpos[start:stop])
        else:
            fields = key_fields(rows, colpos[start:stop], {})
    else:
        keysrc = project_keys(rows, positions, directions)
        colpos = list(range(k_out))
        fields = key_fields(keysrc, colpos[start:stop], {})
    packed = pack_fields(fields, len(rows))
    # The columns where two rows of this input can differ: a packed
    # column unless constant (zero-width field), any column behind.
    varying = [
        (d, colpos[d])
        for d in range(start, k_out)
        if d >= stop or fields[d - start][1]
    ]
    pos0 = colpos[0]

    if not merging:
        packed = _listed(packed)

        def run(lo, hi, out_rows, out_ovcs, out_perm=None):
            fast_sort_segment(
                rows, ovcs, keysrc, packed, varying, pos0, lo, hi, p, k_out,
                out_rows, out_ovcs, out_perm,
            )

        return run

    if heads is None:
        heads = head_positions(code_offsets(ovcs), stop + plan.infix_len)
    if len(heads) * CHUNK_MIN_ROWS_PER_HEAD > len(rows):
        packed = _listed(packed)
    respect_prefix = strategy is Strategy.COMBINED

    def run(lo, hi, out_rows, out_ovcs, out_perm=None):
        seg_heads = heads[bisect_left(heads, lo) : bisect_left(heads, hi)]
        fast_merge_runs(
            rows, ovcs, keysrc, packed, varying, pos0, lo, hi, plan,
            out_rows, out_ovcs, seg_heads, respect_prefix, out_perm,
        )

    return run


def _listed(packed: Sequence[int]) -> Sequence[int]:
    """``packed`` for a row-at-a-time kernel, which reads every word
    twice: list items are ready objects, array items are made per read
    (chunked input reads only its heads, so the array serves it)."""
    return packed.tolist() if isinstance(packed, array) else packed


def fast_modify(
    table: Table,
    new_spec: SortSpec,
    plan: ModificationPlan,
    strategy: Strategy,
    segments: list[tuple[int, int]] | None = None,
    heads: Sequence[int] | None = None,
    perm: list[int] | None = None,
) -> Table:
    """Execute ``strategy`` on ``table`` without instrumentation.

    The table must carry offset-value codes (the caller guarantees it;
    classification, segmenting, and code reconstruction all read them).
    ``segments`` supplies pre-computed segment boundaries and ``heads``
    the merge strategies' head positions (the dispatcher classifies
    once and shares both); when omitted they are derived here.
    ``perm``, when given, receives the output as indices into
    ``table.rows``.
    """
    rows = table.rows
    ovcs = table.ovcs
    n = len(rows)
    k_out = new_spec.arity

    if strategy is Strategy.NOOP:
        if perm is not None:
            perm.extend(range(n))
        return Table(table.schema, list(rows), new_spec, project_ovcs(ovcs, k_out))

    out_rows: list[tuple] = []
    out_ovcs: list[tuple] = []
    if n == 0:
        return Table(table.schema, out_rows, new_spec, out_ovcs)

    with TRACER.span("fastpath.pack", rows=n):
        run = _bind(
            rows, ovcs, new_spec.positions(table.schema), new_spec.directions,
            plan, strategy, table, heads,
        )

    if strategy in (Strategy.FULL_SORT, Strategy.MERGE_RUNS):
        segments = [(0, n)]  # one pass over the whole input
    elif segments is None:
        segments = split_segments(ovcs, plan.prefix_len, n)
    merging = strategy in (Strategy.MERGE_RUNS, Strategy.COMBINED)
    with TRACER.span(
        "fastpath.merge" if merging else "fastpath.sort", rows=n
    ) as sp:
        count = 0
        for lo, hi in segments:
            count += 1
            run(lo, hi, out_rows, out_ovcs, perm)
        sp.set(segments=count)

    return Table(table.schema, out_rows, new_spec, out_ovcs)


def fast_segment(
    seg_rows: Sequence[tuple],
    seg_ovcs: Sequence[tuple],
    plan: ModificationPlan,
    spec: SortSpec,
    positions: Sequence[int],
    strategy: Strategy,
) -> tuple[list[tuple], list[tuple]]:
    """Execute one buffered segment (the streaming operator's unit).

    Returns ``(out_rows, out_ovcs)``; the fields are built per segment,
    which is exactly this call's comparison universe.
    """
    out_rows: list[tuple] = []
    out_ovcs: list[tuple] = []
    if len(seg_rows):
        run = _bind(
            seg_rows, seg_ovcs, positions, spec.directions, plan, strategy
        )
        run(0, len(seg_rows), out_rows, out_ovcs)
    return out_rows, out_ovcs


def fast_sort(
    rows: Sequence[tuple],
    positions: Sequence[int],
    directions: Sequence[bool],
    perm: list[int] | None = None,
    table: Table | None = None,
) -> tuple[list[tuple], list[tuple]]:
    """Stable full sort with fresh output codes — the fast twin of
    :func:`repro.sorting.internal.tournament_sort` with ``use_ovc``.
    ``perm``, when given, receives the output as indices into ``rows``;
    ``table``, whose rows ``rows`` are, lends its remembered fields."""
    out_rows: list[tuple] = []
    out_ovcs: list[tuple] = []
    if len(rows):
        run = _bind(
            rows, None, positions, directions, None, Strategy.FULL_SORT, table
        )
        run(0, len(rows), out_rows, out_ovcs, perm)
    return out_rows, out_ovcs
