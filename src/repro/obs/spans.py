"""Low-overhead span tracer: nested, monotonic-clock timed intervals.

A *span* is one timed interval of work — a modify phase, a segment
sort, a merge pass — with a name, free-form attributes,
and a parent link, so finished spans reassemble into a call tree.  The
paper's headline claims are work claims (Figure 10 counts comparisons,
Figure 11 splits time across methods); spans are how that work is
located *inside* a run instead of summed over it.

Design constraints, in order:

1. **Disabled is (almost) free.**  :meth:`Tracer.span` on a disabled
   tracer returns a shared no-op singleton without allocating anything;
   the total cost is one attribute check plus a context-manager
   protocol round trip.  Call sites therefore instrument at *phase*
   granularity (per segment, per merge pass) — never per
   row — and a Table 1 modify stays within its 5% budget (enforced by
   ``benchmarks/check_trace_overhead.py``).
2. **Durations are monotonic.**  Spans are timed with
   ``time.perf_counter``; a wall-clock anchor captured at enable time
   converts start times to epoch seconds only on export, so no span
   ever reads the wall clock on the hot path.
3. **Records are plain dicts.**  Finished spans dump to JSON without
   conversion; :func:`span_tree` nests them back into a call tree.

Record schema::

    {"name": str, "start": float,  # epoch seconds
     "dur": float,                 # seconds
     "pid": int, "id": int, "parent": int | None,
     "attrs": {...}}               # only if non-empty
"""

from __future__ import annotations

import os
import time
from operator import itemgetter
from typing import Any


class _NullSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _LiveSpan:
    """One open span; appends its record to the tracer on exit."""

    __slots__ = ("_tracer", "name", "attrs", "sid", "parent", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.sid = 0
        self.parent: _LiveSpan | None = None
        self._t0 = 0.0

    def set(self, **attrs: Any) -> "_LiveSpan":
        """Attach attributes mid-span (e.g. once a count is known)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_LiveSpan":
        tracer = self._tracer
        self.sid = tracer._next_id
        tracer._next_id += 1
        self.parent = tracer._current
        tracer._current = self
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        t1 = time.perf_counter()
        tracer = self._tracer
        record = {
            "name": self.name,
            "start": self._t0 + tracer._epoch,
            "dur": t1 - self._t0,
            "pid": tracer._pid,
            "id": self.sid,
            "parent": self.parent.sid if self.parent is not None else None,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        tracer.records.append(record)
        # Generators may close spans out of LIFO order (a Limit stops
        # pulling its child; the child's span closes later, on GC).
        # Only pop the stack when we are actually on top of it.
        if tracer._current is self:
            tracer._current = self.parent
        return False


class Tracer:
    """Per-process span collector.

    One module-level instance (:data:`TRACER`) serves the whole
    process.
    """

    __slots__ = ("enabled", "records", "_current", "_next_id", "_epoch", "_pid")

    def __init__(self) -> None:
        self.enabled = False
        self.records: list[dict] = []
        self._current: _LiveSpan | None = None
        self._next_id = 1
        self._epoch = 0.0
        self._pid = 0

    def span(self, name: str, **attrs: Any):
        """Open a span (use as a context manager).

        Disabled tracers return the shared no-op singleton; enabled
        tracers return a live span that records itself on exit.
        """
        if not self.enabled:
            return NULL_SPAN
        return _LiveSpan(self, name, attrs)

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span, if any.

        Lets deep callees enrich the phase span their caller opened
        (e.g. the resolved strategy) without threading span handles
        through every signature.
        """
        if self.enabled and self._current is not None:
            self._current.attrs.update(attrs)

    def enable(self, clear: bool = True) -> None:
        """Turn tracing on; by default dropping any stale records.

        The wall-clock anchor is (re)captured here.
        """
        if clear:
            self.reset()
        self._epoch = time.time() - time.perf_counter()
        self._pid = os.getpid()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.records = []
        self._current = None
        self._next_id = 1

    def drain(self) -> list[dict]:
        """Return all finished span records and clear the buffer."""
        records, self.records = self.records, []
        return records


def span_tree(records: list[dict], max_nodes: int | None = None) -> list[dict]:
    """Nest flat span records into ``{name, ms, attrs, children}`` trees.

    Parents link by ``id`` (one process, one tracer); a span whose
    parent is not among ``records`` is a root.  Roots and siblings are in
    start order, ``attrs`` and ``children`` appear only when non-empty,
    and at most ``max_nodes`` nodes are built, depth first.  Durations
    are rounded to the microsecond — the tree is for reading, not
    re-timing.
    """
    ids = {r["id"] for r in records}
    children: dict[int, list[dict]] = {}
    roots: list[dict] = []
    for r in records:
        parent = r.get("parent")
        if parent is not None and parent in ids:
            children.setdefault(parent, []).append(r)
        else:
            roots.append(r)
    budget = [len(records) if max_nodes is None else max_nodes]
    by_start = itemgetter("start")

    def build(r: dict) -> dict | None:
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        node: dict[str, Any] = {"name": r["name"], "ms": round(r["dur"] * 1e3, 3)}
        if r.get("attrs"):
            node["attrs"] = r["attrs"]
        kids = sorted(children.get(r["id"], ()), key=by_start)
        built = [b for b in map(build, kids) if b is not None]
        if built:
            node["children"] = built
        return node

    return [b for b in map(build, sorted(roots, key=by_start)) if b is not None]


#: The process-wide tracer.  ``REPRO_TRACE=1`` enables it at import so
#: scripts and notebooks get tracing without code changes.
TRACER = Tracer()
if os.environ.get("REPRO_TRACE", "") not in ("", "0"):
    TRACER.enable()
