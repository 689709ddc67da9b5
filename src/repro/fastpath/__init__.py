"""Fast-path execution engine: packed codes, batch kernels, no counters.

The reference executors (:mod:`repro.core.segmented`,
:mod:`repro.core.merge_runs`) exist to *demonstrate* the paper's
comparison economics: every decision flows through a heap-allocated
:class:`~repro.sorting.tournament.Entry`, a closure-based comparator,
and a :class:`~repro.ovc.stats.ComparisonStats` counter.  That
instrumentation is the point of the reference path — and it buries the
paper's actual performance claim under per-row Python overhead.

This package is the other half of the bargain: the same algorithms with
every row's sort key folded into a **single machine word**
(:mod:`repro.fastpath.packed`: each key column normalized once per
table, whole columns packed at a time), executed by **batch kernels**
over parallel lists (:mod:`repro.fastpath.kernels`) — stable ``sorted``
over packed keys for segment sorting, with each output code read off
two adjacent packed words, and for pre-existing runs the same stable
sort on the packed *restricted* key, which Timsort executes as a
galloping natural-run merge in C, with duplicate/tail rows moving
behind their predecessors as slices (a merge input too short on such
rows is segment-sorted on its full output key instead).  Outputs (rows
*and* offset-value codes) are bit-identical to the reference engine;
the differential suite in ``tests/fastpath/`` enforces that.

Select it via ``modify_sort_order(..., config=
ExecutionConfig(engine="fast"))``, or let ``engine="auto"`` pick it
whenever the caller did not ask for comparison counters.  Every modify
path reaches the kernels through
:func:`repro.core.modify.bind_strategy`, which binds them with
:func:`~repro.fastpath.execute.bind`; :func:`fast_sort` is a full sort
of bare rows over the same binding.
"""

from .execute import fast_sort

__all__ = ["fast_sort"]
