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
(:func:`repro.core.modify.resolve_engine`): ``auto`` flushes each
buffered segment through the packed-code kernels
(:func:`repro.fastpath.execute.fast_segment`) — same rows and codes,
no comparison counts — with a per-segment fallback to the instrumented
executors on keys the key packer cannot rank; ``engine="reference"`` is how
to ask for this operator's counters.
"""

from __future__ import annotations

from typing import Iterator

from ..core.analysis import ModificationPlan, Strategy, analyze_order_modification
from ..core.merge_runs import merge_preexisting_runs
from ..core.modify import resolve_engine
from ..core.segmented import sort_segment
from ..exec.config import ExecutionConfig
from ..model import SortSpec
from ..obs import METRICS, TRACER
from ..ovc.derive import project_ovc
from ..sorting.merge import _key_projector
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
        schema = self.schema
        out_positions = spec.positions(schema)
        out_project = _key_projector(out_positions, spec.directions)
        in_spec = self._child.ordering
        in_project = _key_projector(
            in_spec.positions(schema), in_spec.directions
        )

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
            engine = self._engine
            with TRACER.span(
                "streaming.segment", rows=len(seg_rows), engine=engine
            ) as sp:
                if engine == "fast":
                    from ..fastpath.execute import fast_segment

                    try:
                        out_rows, out_ovcs = fast_segment(
                            seg_rows, seg_ovcs, plan, spec, out_positions,
                            plan.strategy,
                        )
                    except TypeError:
                        if self._config.engine == "fast":
                            raise
                        engine = "reference"
                        sp.set(engine=engine, fallback=True)
                if engine == "reference":
                    if plan.strategy in (Strategy.MERGE_RUNS, Strategy.COMBINED):
                        merge_preexisting_runs(
                            seg_rows, seg_ovcs, 0, len(seg_rows), plan,
                            out_project, in_project, self.stats, out_rows,
                            out_ovcs, use_ovc=True,
                            respect_prefix=plan.strategy is Strategy.COMBINED,
                        )
                    else:
                        sort_segment(
                            seg_rows, seg_ovcs, 0, len(seg_rows),
                            plan.prefix_len, spec.arity, out_project,
                            self.stats, out_rows, out_ovcs, use_ovc=True,
                        )
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
