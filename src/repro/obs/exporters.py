"""Span and metric exporters: JSON-lines, Chrome trace, Prometheus, tree.

Four consumers, four formats:

* :func:`write_jsonl` / :func:`read_jsonl` — the lossless archival
  format: one JSON object per line (``{"type": "span"|"metrics"|
  "meta", ...}``), streamable and diff-able.
* :func:`chrome_trace` — the Chrome trace-event format (``ph: "X"``
  complete events, microsecond timestamps), loadable in Perfetto or
  ``chrome://tracing``; a metadata event names each process.
* :func:`prometheus_text` — Prometheus text exposition of the metrics
  registry (counters, gauges, histograms with power-of-two ``le``
  buckets).
* :func:`render_tree` — the human view: the span call tree with
  inclusive *and* self time per node.

:func:`validate_chrome_trace` is the schema check CI and tests run
against emitted artifacts.
"""

from __future__ import annotations

import json
import re as _re
from operator import itemgetter
from typing import Any, Iterable

from .metrics import MetricsRegistry

# JSON-lines --------------------------------------------------------------


def write_jsonl(
    path: str,
    records: Iterable[dict],
    metrics: dict | None = None,
    meta: dict | None = None,
) -> None:
    """Dump spans (and optional metrics/meta objects) one per line."""
    with open(path, "w") as fh:
        if meta is not None:
            fh.write(json.dumps({"type": "meta", **meta}) + "\n")
        for record in records:
            fh.write(json.dumps({"type": "span", **record}) + "\n")
        if metrics is not None:
            fh.write(json.dumps({"type": "metrics", "metrics": metrics}) + "\n")


def read_jsonl(path: str) -> tuple[list[dict], dict | None, dict | None]:
    """Read a JSON-lines artifact back: ``(spans, metrics, meta)``."""
    spans: list[dict] = []
    metrics: dict | None = None
    meta: dict | None = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            kind = obj.pop("type", "span")
            if kind == "span":
                spans.append(obj)
            elif kind == "metrics":
                metrics = obj.get("metrics")
            elif kind == "meta":
                meta = obj
    return spans, metrics, meta


# Chrome trace-event format ----------------------------------------------


def chrome_trace(records: Iterable[dict], metrics: dict | None = None) -> dict:
    """Convert span records to a Chrome trace-event JSON object.

    Timestamps are microseconds relative to the earliest span, so the
    viewer opens at t=0 regardless of wall-clock epoch.  Every process
    gets a ``process_name`` metadata event.
    """
    records = list(records)
    events: list[dict] = []
    if not records:
        return {"traceEvents": events, "displayTimeUnit": "ms"}
    t0 = min(r["start"] for r in records)
    for r in records:
        events.append(
            {
                "name": r["name"],
                "cat": "repro",
                "ph": "X",
                "ts": round((r["start"] - t0) * 1e6, 3),
                "dur": round(r["dur"] * 1e6, 3),
                "pid": r["pid"],
                "tid": 0,
                "args": dict(r.get("attrs", {})),
            }
        )
    pids = sorted({r["pid"] for r in records})
    for pid in pids:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"main pid={pid}"},
            }
        )
    if metrics is not None:
        events.append(
            {
                "name": "metrics",
                "ph": "M",
                "pid": pids[0],
                "tid": 0,
                "args": {"metrics": metrics},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str, records: Iterable[dict], metrics: dict | None = None
) -> dict:
    """Write :func:`chrome_trace` output to ``path``; returns the object."""
    obj = chrome_trace(records, metrics)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
    return obj


def validate_chrome_trace(obj: Any) -> list[str]:
    """Schema-check a trace-event object; returns a list of problems."""
    errors: list[str] = []
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        return ["top level must be an object with a 'traceEvents' array"]
    events = obj["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be an array"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append(f"event {i}: not an object")
            continue
        for key in ("name", "ph", "pid"):
            if key not in ev:
                errors.append(f"event {i}: missing {key!r}")
        ph = ev.get("ph")
        if ph == "X":
            for key in ("ts", "dur"):
                if not isinstance(ev.get(key), (int, float)):
                    errors.append(f"event {i}: 'X' event needs numeric {key!r}")
                elif ev[key] < 0:
                    errors.append(f"event {i}: negative {key!r}")
        elif ph == "M":
            if not isinstance(ev.get("args"), dict):
                errors.append(f"event {i}: metadata event needs 'args'")
        elif ph is not None:
            errors.append(f"event {i}: unsupported phase {ph!r}")
    return errors


# Prometheus text exposition ---------------------------------------------

#: Prometheus metric-name grammar (we never emit colons, but the
#: grammar allows them).
_PROM_NAME_RE = _re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_PROM_LABEL_RE = _re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
#: One sample line: ``name{labels} value`` with optional label block.
_PROM_SAMPLE_RE = _re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>(?:[a-zA-Z_][a-zA-Z0-9_]*="
    r'"(?:[^"\\\n]|\\["\\n])*",?)*)\})?'
    r" (?P<value>[^ ]+)$"
)


def _prom_name(name: str) -> str:
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return "repro_" + cleaned


def _prom_escape_label(value: Any) -> str:
    """Escape a label value per the text-format rules: ``\\``, ``"``,
    and newline must be backslash-escaped inside the quotes."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_escape_help(text: str) -> str:
    """``# HELP`` bodies escape only backslash and newline."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def prom_label_block(labels: dict[str, Any]) -> str:
    """Render ``{k="v",...}`` with sanitized names and escaped values."""
    if not labels:
        return ""
    parts = []
    for key, value in sorted(labels.items()):
        cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in key)
        if not cleaned or cleaned[0].isdigit():
            cleaned = "_" + cleaned
        parts.append(f'{cleaned}="{_prom_escape_label(value)}"')
    return "{" + ",".join(parts) + "}"


def prometheus_text(metrics: MetricsRegistry | dict) -> str:
    """Render a registry (or its :meth:`~MetricsRegistry.as_dict`) as
    Prometheus text exposition format.

    Every family gets ``# HELP`` and ``# TYPE`` lines; label values are
    escaped per the exposition-format rules.  Output round-trips
    through :func:`validate_prometheus_text`.
    """
    snap = metrics.as_dict() if isinstance(metrics, MetricsRegistry) else metrics
    lines: list[str] = []

    def head(pname: str, source: str, kind: str) -> None:
        lines.append(
            f"# HELP {pname} "
            + _prom_escape_help(f"repro {kind} '{source}'")
        )
        lines.append(f"# TYPE {pname} {kind}")

    for name, value in sorted(snap.get("counters", {}).items()):
        pname = _prom_name(name)
        head(pname, name, "counter")
        lines.append(f"{pname} {value}")
    for name, g in sorted(snap.get("gauges", {}).items()):
        pname = _prom_name(name)
        head(pname, name, "gauge")
        lines.append(f"{pname} {g['value']}")
        hwm = _prom_name(name) + "_max"
        lines.append(f"# HELP {hwm} " + _prom_escape_help(
            f"repro gauge '{name}' high-water mark"))
        lines.append(f"# TYPE {hwm} gauge")
        lines.append(f"{hwm} {g['max']}")
    for name, h in sorted(snap.get("histograms", {}).items()):
        pname = _prom_name(name)
        head(pname, name, "histogram")
        cumulative = 0
        for bucket, n in sorted(
            ((int(b), n) for b, n in h["buckets"].items())
        ):
            cumulative += n
            le = prom_label_block({"le": 2 ** bucket})
            lines.append(f"{pname}_bucket{le} {cumulative}")
        lines.append(f'{pname}_bucket{{le="+Inf"}} {h["count"]}')
        lines.append(f"{pname}_sum {h['sum']}")
        lines.append(f"{pname}_count {h['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def validate_prometheus_text(text: str) -> list[str]:
    """Grammar-check text exposition output; returns a list of problems.

    A regex-based checker for the subset of the format we emit — metric
    and label name grammar, ``# HELP``/``# TYPE`` comment shape, every
    sample before its family's ``# TYPE``, parseable values, histogram
    buckets cumulative with a ``+Inf`` terminal matching ``_count``.
    Empty list means the page would scrape cleanly.
    """
    errors: list[str] = []
    typed: dict[str, str] = {}
    bucket_last: dict[str, float] = {}
    bucket_final: dict[str, float] = {}
    counts: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 4 or parts[1] not in ("HELP", "TYPE"):
                errors.append(f"line {lineno}: malformed comment {line!r}")
                continue
            if not _PROM_NAME_RE.fullmatch(parts[2]):
                errors.append(f"line {lineno}: bad metric name {parts[2]!r}")
            if parts[1] == "TYPE":
                if parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    errors.append(f"line {lineno}: bad type {parts[3]!r}")
                elif parts[2] in typed:
                    errors.append(
                        f"line {lineno}: duplicate TYPE for {parts[2]!r}"
                    )
                else:
                    typed[parts[2]] = parts[3]
            continue
        m = _PROM_SAMPLE_RE.match(line)
        if m is None:
            errors.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name, labels, value = m.group("name", "labels", "value")
        try:
            fval = float(value)
        except ValueError:
            errors.append(f"line {lineno}: bad value {value!r}")
            continue
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                family = name[: -len(suffix)]
                break
        if family not in typed:
            errors.append(
                f"line {lineno}: sample {name!r} has no preceding # TYPE"
            )
        label_map: dict[str, str] = {}
        if labels:
            for pair in _re.findall(
                r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\["\\n])*)"', labels
            ):
                if not _PROM_LABEL_RE.fullmatch(pair[0]):
                    errors.append(
                        f"line {lineno}: bad label name {pair[0]!r}"
                    )
                label_map[pair[0]] = pair[1]
        if name.endswith("_bucket") and typed.get(family) == "histogram":
            le = label_map.get("le")
            if le is None:
                errors.append(f"line {lineno}: bucket without 'le' label")
                continue
            if le == "+Inf":
                bucket_final[family] = fval
            else:
                prev = bucket_last.get(family)
                if prev is not None and fval < prev:
                    errors.append(
                        f"line {lineno}: non-cumulative bucket for {family!r}"
                    )
                bucket_last[family] = fval
        elif name.endswith("_count") and typed.get(family) == "histogram":
            counts[family] = fval
    for family, final in bucket_final.items():
        if family in counts and counts[family] != final:
            errors.append(
                f"histogram {family!r}: +Inf bucket {final} != count "
                f"{counts[family]}"
            )
        last = bucket_last.get(family)
        if last is not None and last > final:
            errors.append(
                f"histogram {family!r}: finite bucket {last} exceeds +Inf "
                f"{final}"
            )
    return errors


# Human tree view ---------------------------------------------------------


def _fmt_seconds(s: float) -> str:
    if s >= 1.0:
        return f"{s:.3f}s"
    return f"{s * 1e3:.2f}ms"


def _label(record: dict) -> str:
    parts = [record["name"]]
    attrs = record.get("attrs")
    if attrs:
        parts.append(" ".join(f"{k}={v}" for k, v in sorted(attrs.items())))
    return "  ".join(parts)


def render_tree(records: Iterable[dict], max_children: int = 64) -> str:
    """Render spans as an indented tree with inclusive and self time.

    Spans nest by their parent links, siblings in start order.  Self
    time is the span's duration minus its direct children's durations —
    the work the phase did itself rather than delegated.
    """
    records = list(records)
    if not records:
        return "(no spans recorded)"
    by_key = {(r["pid"], r["id"]): r for r in records}
    children: dict[tuple, list[dict]] = {}
    roots: list[dict] = []
    for r in records:
        parent = r.get("parent")
        key = (r["pid"], parent)
        if parent is not None and key in by_key:
            children.setdefault(key, []).append(r)
        else:
            roots.append(r)

    by_start = itemgetter("start")
    lines: list[str] = []

    def emit(r: dict, depth: int) -> None:
        kids = sorted(children.get((r["pid"], r["id"]), []), key=by_start)
        self_s = r["dur"] - sum(k["dur"] for k in kids)
        timing = _fmt_seconds(r["dur"])
        if kids:
            timing += f" (self {_fmt_seconds(max(self_s, 0.0))})"
        lines.append(f"{'  ' * depth}{_label(r)}  {timing}")
        shown = kids[:max_children]
        for kid in shown:
            emit(kid, depth + 1)
        if len(kids) > len(shown):
            rest = kids[len(shown):]
            lines.append(
                f"{'  ' * (depth + 1)}... {len(rest)} more spans "
                f"({_fmt_seconds(sum(k['dur'] for k in rest))} total)"
            )

    for root in sorted(roots, key=by_start):
        emit(root, 0)
    return "\n".join(lines)
