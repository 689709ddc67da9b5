"""Compile-time analysis: from (existing, desired) sort orders to a plan.

This is the paper's Section 3.5 first step: compare the existing and
the desired sort order — including ascending/descending directions —
and decompose the desired order into

* a shared **prefix** ``P`` that defines segments,
* **merge keys** ``M``: the next desired columns, found *later* in the
  existing order,
* an **infix** ``X``: the intervening existing columns, whose distinct
  values define pre-existing runs,
* a common **tail** ``T`` after both.

Supported shapes (letters are column lists; Table 1 of the paper):

====  ======================  =========================
case  existing                desired
====  ======================  =========================
0     ``A,B``                 ``A`` (or identical)
1     ``A``                   ``A,B``
2     ``A,B``                 ``B``
3     ``A,B``                 ``B,A``
4     ``A,B,C``               ``A,C``
5     ``A,B,C``               ``A,C,B``
6     ``A,B,C,D``             ``A,C,D``
7     ``A,B,C,D``             ``A,C,B,D``
====  ======================  =========================

Desired orders outside these shapes degrade gracefully: a shared prefix
still enables segmented sorting (sort each segment from scratch), and
with no shared structure at all the plan falls back to a full sort.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from ..model import SortSpec


class Strategy(enum.Enum):
    """Execution strategy chosen at compile time."""

    #: The existing order already satisfies the desired order.
    NOOP = "noop"
    #: Segments from the shared prefix; full sort inside each segment.
    SEGMENT_SORT = "segment_sort"
    #: Pre-existing runs merged; no shared prefix (cases 2/3).
    MERGE_RUNS = "merge_runs"
    #: Segments from the shared prefix and pre-existing runs merged
    #: inside each segment (cases 4-7).
    COMBINED = "combined"
    #: No exploitable structure: ordinary (internal/external) sort.
    FULL_SORT = "full_sort"


@dataclass(frozen=True)
class ModificationPlan:
    """Everything the run-time executors need, in column positions.

    All column lists are given as *positions within the desired sort
    key's column order* resolved against the schema separately; here we
    keep the :class:`SortSpec` views plus the derived sizes.
    """

    input_spec: SortSpec
    output_spec: SortSpec
    strategy: Strategy
    #: Shared prefix length ``|P|`` (columns).
    prefix_len: int
    #: Infix ``X`` — existing columns displaced behind the merge keys
    #: (or dropped entirely); its distinct values define runs.
    infix: SortSpec
    #: Merge keys ``M`` — desired columns already sorted within runs.
    merge_keys: SortSpec
    #: Common tail ``T`` present at the end of both orders.
    tail: SortSpec
    #: True when the infix does not appear in the desired order
    #: (cases 2/4/6): the merge may discover *new duplicates*.
    infix_dropped: bool
    #: Closest Table 1 case (0-7), or None outside the taxonomy.
    case_id: int | None
    #: True when the decomposition applies to the input read *backwards*
    #: (all directions flipped) — Section 3.5's backward-scan
    #: generalization.  ``input_spec`` is then already the reversed spec.
    backward: bool = False

    @property
    def infix_len(self) -> int:
        return self.infix.arity

    @property
    def merge_len(self) -> int:
        return self.merge_keys.arity

    @property
    def tail_len(self) -> int:
        return self.tail.arity

    @property
    def input_arity(self) -> int:
        return self.input_spec.arity

    @property
    def output_arity(self) -> int:
        return self.output_spec.arity

    def describe(self) -> str:
        parts = [
            f"strategy={self.strategy.value}",
            f"case={self.case_id if self.case_id is not None else '-'}",
            f"P={self.input_spec.names[: self.prefix_len]}",
            f"X={self.infix.names}",
            f"M={self.merge_keys.names}",
            f"T={self.tail.names}",
        ]
        if self.infix_dropped:
            parts.append("infix dropped")
        return ", ".join(parts)


def _empty_spec() -> SortSpec:
    return SortSpec(())


def _table1_case(
    prefix_len: int,
    infix_len: int,
    merge_len: int,
    tail_len: int,
    infix_dropped: bool,
    strategy: Strategy,
) -> int | None:
    if strategy is Strategy.NOOP:
        return 0
    if strategy is Strategy.SEGMENT_SORT:
        return 1
    if strategy is Strategy.MERGE_RUNS:
        return 2 if infix_dropped else 3
    if strategy is Strategy.COMBINED:
        if infix_dropped:
            # Case 6 extends case 4 with the extra trailing column(s)
            # folded into the merge keys.
            return 4 if merge_len == 1 else 6
        return 5 if tail_len == 0 else 7
    return None


@lru_cache(maxsize=256)
def analyze_order_modification(
    input_spec: SortSpec, output_spec: SortSpec, allow_backward: bool = True
) -> ModificationPlan:
    """Decompose the desired order against the existing order.

    Runs entirely on key metadata — no data access — and therefore
    belongs in query optimization, where its output also informs the
    cost model (:mod:`repro.core.cost`).  A pure function of two
    immutable specs, so it is memoized: a repeat order pays a lookup,
    and every caller gets the same (frozen) plan object.

    With ``allow_backward`` (the default), an order with no usable
    forward structure is retried against the input read back to front
    (all directions flipped); a successful plan comes back with
    ``backward=True`` and ``input_spec`` replaced by the reversed spec.
    """
    p = input_spec.common_prefix_len(output_spec)

    if p == output_spec.arity:
        # Case 0: desired order is a prefix of (or equals) the existing.
        return ModificationPlan(
            input_spec,
            output_spec,
            Strategy.NOOP,
            p,
            _empty_spec(),
            _empty_spec(),
            _empty_spec(),
            False,
            0,
        )

    rest_in = input_spec.columns[p:]
    rest_out = output_spec.columns[p:]

    if not rest_in:
        # Case 1: existing key is a proper prefix of the desired key —
        # segments are sorted on the remaining desired columns.
        return ModificationPlan(
            input_spec,
            output_spec,
            Strategy.SEGMENT_SORT,
            p,
            _empty_spec(),
            _empty_spec(),
            _empty_spec(),
            False,
            1,
        )

    # Look for the P + X + M + T <-> P + M + X + T decomposition, or the
    # infix-dropped variant P + X + M(+extra) <-> P + M.  The smallest
    # infix is preferred (most pre-existing runs, cheapest merge).
    #
    # With a *retained* infix, desired columns after M + X (the tail T)
    # bypass the merge glued to their predecessors, because the infix
    # breaks ties before the tail is reached.  With a *dropped* infix
    # nothing breaks ties before the tail, so any desired columns after
    # M must be folded into M itself — hence the dropped variant
    # requires the whole remaining desired order to be one contiguous
    # block of the existing order.  Existing columns beyond the desired
    # key only add harmless extra sortedness in either variant.
    best: tuple[int, int, int, bool] | None = None
    for x in range(1, len(rest_in)):
        infix_block = rest_in[:x]
        # Dropped variant: rest_out is a contiguous block right after X.
        if (
            len(rest_out) <= len(rest_in) - x
            and rest_in[x : x + len(rest_out)] == rest_out
        ):
            best = (x, len(rest_out), 0, True)
            break
        # Retained variant: rest_out == M + X + T' with T' a prefix of
        # the existing order's tail after M.
        for m in range(1, len(rest_in) - x + 1):
            if rest_out[:m] != rest_in[x : x + m]:
                break  # M is a block: longer m cannot match either.
            if rest_out[m : m + x] != infix_block:
                continue
            t_block = rest_out[m + x :]
            if t_block == rest_in[x + m : x + m + len(t_block)]:
                best = (x, m, len(t_block), False)
                break
        if best is not None:
            break

    if best is not None:
        x, m, t, dropped = best
        strategy = Strategy.COMBINED if p > 0 else Strategy.MERGE_RUNS
        infix = SortSpec(rest_in[:x])
        merge_keys = SortSpec(rest_in[x : x + m])
        tail = SortSpec(rest_out[m + x : m + x + t]) if not dropped else _empty_spec()
        return ModificationPlan(
            input_spec,
            output_spec,
            strategy,
            p,
            infix,
            merge_keys,
            tail,
            dropped,
            _table1_case(p, x, m, t, dropped, strategy),
        )

    if p > 0:
        # Shared prefix only: segmented sorting with full sorts inside.
        return ModificationPlan(
            input_spec,
            output_spec,
            Strategy.SEGMENT_SORT,
            p,
            _empty_spec(),
            _empty_spec(),
            _empty_spec(),
            False,
            1 if not rest_in else None,
        )

    if allow_backward:
        # No forward structure at all: would reading the input back to
        # front (all directions flipped) expose any?
        from .backward import reversed_spec
        import dataclasses

        rev = reversed_spec(input_spec)
        plan = analyze_order_modification(rev, output_spec, allow_backward=False)
        if plan.strategy is not Strategy.FULL_SORT:
            return dataclasses.replace(plan, backward=True)

    return ModificationPlan(
        input_spec,
        output_spec,
        Strategy.FULL_SORT,
        0,
        _empty_spec(),
        _empty_spec(),
        _empty_spec(),
        False,
        None,
    )
