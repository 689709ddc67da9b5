"""Streaming order modification: one segment in memory at a time.

The paper's Section 3.5 notes that the run-time step "may materialize
the input in memory or on storage, either entirely or one segment at a
time".  :class:`StreamingModify` implements the segment-at-a-time
variant as a pull-based operator: it buffers only the current segment
(detected from input codes without comparisons), flushes its merged
rows downstream, and moves on — memory stays bounded by the largest
segment instead of the whole input, which is precisely how segmented
sorting turns one external sort into many internal ones (hypothesis 1).

For plans without a shared prefix (cases 2/3) the whole input is one
segment and this operator degenerates to the materializing path.

The operator is :class:`repro.core.external_modify.SegmentLoop` fed
row by row with no capacity: every segment is its own memory load.
``config.engine`` follows the one engine rule
(:func:`repro.core.modify.resolve_engine`), and each buffered segment
is bound to its executor by :func:`repro.core.modify.bind_strategy`:
``auto`` runs the packed-code kernels — same rows and codes, no
comparison counts — packing one segment at a time, so its fallback to
the instrumented executors on keys the key packer cannot rank is per
segment too; ``engine="reference"`` is how to ask for this operator's
counters.  ``Sort(memory_capacity=)`` runs the same loop with a bound.
"""

from __future__ import annotations

from typing import Iterator

from ..core.analysis import ModificationPlan, Strategy, analyze_order_modification
from ..core.external_modify import SegmentLoop
from ..exec.config import ExecutionConfig
from ..model import SortSpec
from ..ovc.derive import project_ovc
from .operators import Operator


class StreamingModify(Operator):
    """Modify the child's sort order, one prefix segment at a time.

    The child must be ordered and coded.  Peak buffered rows are
    exposed as :attr:`peak_segment_rows` after execution.
    """

    def __init__(
        self,
        child: Operator,
        spec: SortSpec,
        config: "ExecutionConfig | None" = None,
    ) -> None:
        if child.ordering is None:
            raise ValueError("streaming modification needs an ordered input")
        super().__init__(child.schema, spec, child.stats)
        self._config = config if config is not None else ExecutionConfig.default()
        self._child = child
        self._spec = spec
        self.plan: ModificationPlan = analyze_order_modification(
            child.ordering, spec
        )
        if self.plan.backward:
            raise ValueError(
                "backward plans need the whole input; use the Sort operator"
            )
        self.peak_segment_rows = 0

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        if self.plan.strategy is Strategy.NOOP:
            arity = self._spec.arity
            for row, ovc in self._child:
                yield row, ovc if ovc is None else project_ovc(ovc, arity)
            self.peak_segment_rows = 1
            return
        loop = SegmentLoop(
            self.schema, self._child.ordering, self._spec, self.plan,
            stats=self.stats, config=self._config,
        )
        rows: list[tuple] = []
        ovcs: list[tuple] = []
        for _ in loop.run(loop.streamed(self._child), rows, ovcs):
            self.peak_segment_rows = loop.peak_rows
            yield from zip(rows, ovcs)
            rows.clear()
            ovcs.clear()

    def _children(self) -> list[Operator]:
        return [self._child]
