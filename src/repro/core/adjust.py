"""Offset-value code adjustment — the paper's novel arithmetic.

All functions here transform cached codes; none compares column values.
The rules (Section 3.4, Figures 7-9):

* **Merge rows** ("other rows"): the infix leaves its place between the
  prefix and the merge keys, so the offset simply drops by ``|X|``
  while the value part is retained.
* **Run heads**: the old code (which describes the difference to the
  *previous run*, in infix space) is saved for later derivation, and
  the row enters the merge coded ``(|P|, value of its first merge
  column)`` — the one place a column value must be extracted.
* **Duplicate/tail rows**: bypass the merge; their codes map
  positionally (unchanged, or clamped to "duplicate" where the output
  key ends earlier than the input key).
* **New duplicates in the merge keys**: when the merge finds rows from
  different runs equal through all merge keys, the loser's output code
  is *derived* from the saved run-head codes via the max-theorem and
  shifted behind the merge keys — no infix column is ever compared.
"""

from __future__ import annotations

from ..obs import METRICS
from ..ovc.codes import max_merge


def map_bypass_ovc(
    ovc: tuple,
    prefix_len: int,
    infix_len: int,
    merge_len: int,
    tail_len: int,
    output_arity: int,
    infix_dropped: bool,
) -> tuple:
    """Output code for a duplicate/tail row that bypasses the merge.

    With a retained infix, a tail column occupies the same key position
    in input and output, so codes within the tail are unchanged; codes
    beyond the output key clamp to the duplicate code.  With a dropped
    infix every bypass row is an exact duplicate under the output key.
    """
    offset, value = ovc
    if infix_dropped:
        return (output_arity, 0)
    boundary = prefix_len + infix_len + merge_len
    if offset < boundary + tail_len:
        return (offset, value)
    return (output_arity, 0)


class RunHeadChain:
    """Saved run-head codes and cross-run code derivation.

    ``saved[j]`` is run ``j``'s head's *old* ascending code (input
    arity space) — relative to the last row of run ``j-1``; the
    segment head's code (run 0) is relative to whatever preceded the
    segment.  Because those offsets lie inside the prefix+infix region,
    the codes are insensitive to the base row's merge-key and tail
    columns, so they chain with the max-theorem:

        code(head_j | any row of run_i) = max(saved[i+1 .. j])

    Derived codes are then shifted into output positions: offsets
    inside the infix move behind the merge keys (``+|M|``); offsets
    inside the prefix (possible only when runs span segments, i.e. the
    merge-without-segmenting method) stay put.
    """

    def __init__(
        self,
        input_arity: int,
        output_arity: int,
        prefix_len: int,
        merge_len: int,
    ) -> None:
        self._saved: list[tuple] = []
        self._in_arity = input_arity
        self._out_arity = output_arity
        self._prefix_len = prefix_len
        self._merge_len = merge_len

    def __len__(self) -> int:
        return len(self._saved)

    def save(self, ovc: tuple) -> None:
        """Record the next run's head code (paper form, input arity)."""
        if METRICS.enabled:
            METRICS.counter("adjust.saved_run_heads").inc()
        offset, value = ovc
        remaining = self._in_arity - offset if offset < self._in_arity else 0
        self._saved.append((remaining, value))

    def head_ovc(self, run: int) -> tuple:
        """The saved paper-form code of run ``run``'s head."""
        remaining, value = self._saved[run]
        if remaining == 0:
            return (self._in_arity, 0)
        return (self._in_arity - remaining, value)

    def derive_output_code(self, winner_run: int, loser_run: int) -> tuple:
        """Ascending output-arity code of a loser equal to the winner
        through all merge keys, without comparing infix columns."""
        if not winner_run < loser_run:
            raise ValueError(
                f"derivation needs winner run {winner_run} < loser run {loser_run}"
            )
        if METRICS.enabled:
            # Each derivation is one cross-run tie resolved without
            # touching an infix column — the paper's Section 3.4 win.
            METRICS.counter("adjust.derived_codes").inc()
        code = self._saved[winner_run + 1]
        for j in range(winner_run + 2, loser_run + 1):
            code = max_merge(code, self._saved[j])
        remaining, value = code
        offset_in = self._in_arity - remaining
        if offset_in >= self._prefix_len:
            # Infix position: shifts behind the merge keys.
            offset_out = offset_in + self._merge_len
        else:
            # Prefix position (merge-without-segmenting): unchanged.
            offset_out = offset_in
        return (self._out_arity - offset_out, value)

