"""Span and metric exporters: JSON-lines, Prometheus, tree.

Three consumers, three formats:

* :func:`write_jsonl` / :func:`read_jsonl` — the one artifact format for
  spans: one JSON object per line (``{"type": "span"|"metrics"|
  "meta", ...}``), streamable and diff-able, like the structured log
  and the slow log.
* :func:`prometheus_text` — Prometheus text exposition of the metrics
  registry (counters, gauges, histograms with power-of-two ``le``
  buckets); :func:`validate_prometheus_text` is its grammar check.
* :func:`render_tree` — the human view: the span call tree with
  inclusive *and* self time per node.
"""

from __future__ import annotations

import json
import re as _re
from typing import Any, Iterable

from .metrics import MetricsRegistry
from .spans import span_tree

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


def _fmt_ms(ms: float) -> str:
    if ms >= 1e3:
        return f"{ms / 1e3:.3f}s"
    return f"{ms:.2f}ms"


def _label(node: dict) -> str:
    parts = [node["name"]]
    attrs = node.get("attrs")
    if attrs:
        parts.append(" ".join(f"{k}={v}" for k, v in sorted(attrs.items())))
    return "  ".join(parts)


def render_tree(records: Iterable[dict], max_children: int = 64) -> str:
    """Render spans as an indented tree with inclusive and self time.

    Spans nest as :func:`~repro.obs.spans.span_tree` nests them,
    siblings in start order.  Self time is the span's duration minus its
    direct children's durations — the work the phase did itself rather
    than delegated.
    """
    roots = span_tree(list(records))
    if not roots:
        return "(no spans recorded)"
    lines: list[str] = []

    def emit(node: dict, depth: int) -> None:
        kids = node.get("children", [])
        timing = _fmt_ms(node["ms"])
        if kids:
            self_ms = node["ms"] - sum(k["ms"] for k in kids)
            timing += f" (self {_fmt_ms(max(self_ms, 0.0))})"
        lines.append(f"{'  ' * depth}{_label(node)}  {timing}")
        for kid in kids[:max_children]:
            emit(kid, depth + 1)
        rest = kids[max_children:]
        if rest:
            lines.append(
                f"{'  ' * (depth + 1)}... {len(rest)} more spans "
                f"({_fmt_ms(sum(k['ms'] for k in rest))} total)"
            )

    for root in roots:
        emit(root, 0)
    return "\n".join(lines)
