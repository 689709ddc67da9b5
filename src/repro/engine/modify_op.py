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

``config.engine`` follows the one engine rule
(:func:`repro.core.modify.resolve_engine`), and each buffered segment
is bound to its executor by :func:`repro.core.modify.bind_strategy`:
``auto`` runs the packed-code kernels — same rows and codes, no
comparison counts — packing one segment at a time, so its fallback to
the instrumented executors on keys the key packer cannot rank is per
segment too; ``engine="reference"`` is how to ask for this operator's
counters.
"""

from __future__ import annotations

from typing import Iterator

from ..core.analysis import ModificationPlan, Strategy, analyze_order_modification
from ..core.modify import bind_strategy, resolve_engine
from ..exec.config import ExecutionConfig
from ..model import SortSpec, Table
from ..obs import METRICS, TRACER
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
        self._engine = resolve_engine(self._config)
        self.plan: ModificationPlan = analyze_order_modification(
            child.ordering, spec
        )
        if self.plan.backward:
            raise ValueError(
                "backward plans need the whole input; use the Sort operator"
            )
        self.peak_segment_rows = 0

    def __iter__(self) -> Iterator[tuple[tuple, tuple | None]]:
        plan = self.plan
        spec = self._spec

        if plan.strategy is Strategy.NOOP:
            arity = spec.arity
            for row, ovc in self._child:
                yield row, ovc if ovc is None else project_ovc(ovc, arity)
            self.peak_segment_rows = 1
            return

        boundary = plan.prefix_len if plan.strategy is not Strategy.FULL_SORT else 0

        seg_rows: list[tuple] = []
        seg_ovcs: list[tuple] = []

        def flush() -> Iterator[tuple[tuple, tuple | None]]:
            if not seg_rows:
                return
            self.peak_segment_rows = max(self.peak_segment_rows, len(seg_rows))
            if METRICS.enabled:
                METRICS.gauge("streaming.buffered_rows").set(len(seg_rows))
            out_rows: list[tuple] = []
            out_ovcs: list[tuple] = []
            segment = Table(self.schema, seg_rows, self._child.ordering, seg_ovcs)
            with TRACER.span("streaming.segment", rows=len(seg_rows)) as sp:
                run, engine, fallback = bind_strategy(
                    segment, spec, plan, plan.strategy, engine=self._engine,
                    stats=self.stats, forced=self._config.engine == "fast",
                )
                sp.set(engine=engine, fallback=fallback)
                run(0, len(seg_rows), out_rows, out_ovcs)
            yield from zip(out_rows, out_ovcs)
            seg_rows.clear()
            seg_ovcs.clear()

        for row, ovc in self._child:
            if ovc is None:
                raise ValueError(
                    "streaming modification requires offset-value codes"
                )
            if seg_rows and boundary > 0 and ovc[0] < boundary:
                yield from flush()
            seg_rows.append(row)
            seg_ovcs.append(ovc)
        yield from flush()

    def _children(self) -> list[Operator]:
        return [self._child]
