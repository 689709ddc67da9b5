"""Every metric name used in src/ is documented in the registry docstring.

The ``repro.obs.metrics`` module docstring is the name registry: the
single place an operator looks up what a series means before wiring a
dashboard.  This test greps the source tree for literal
``METRICS.counter("...")`` / ``gauge`` / ``histogram`` call sites and
fails when one uses a name the docstring does not mention — so adding a
metric without documenting it breaks CI.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro.obs.metrics as metrics_mod

SRC = Path(metrics_mod.__file__).resolve().parent.parent

CALL_RE = re.compile(
    r'METRICS\.(?:counter|gauge|histogram)\(\s*"([^"]+)"'
)


def _names_used_in_src() -> set[str]:
    names: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        names.update(CALL_RE.findall(path.read_text(encoding="utf-8")))
    return names


def test_source_tree_uses_metrics():
    names = _names_used_in_src()
    # A floor, not a ceiling: the telemetry plane should keep growing.
    assert len(names) >= 40
    assert "serve.rejected_overload" in names
    assert "exec.spill.runs" in names
    assert "server.requests" in names


def test_every_literal_metric_name_is_documented():
    doc = metrics_mod.__doc__ or ""
    undocumented = sorted(
        name for name in _names_used_in_src() if name not in doc
    )
    assert not undocumented, (
        "metric names used in src/ but missing from the repro.obs.metrics "
        f"docstring registry: {undocumented}"
    )


def test_documented_families_use_registry_prefixes():
    # Guard the naming convention: every literal name is dotted and
    # lowercase, so the Prometheus translation stays predictable.
    for name in _names_used_in_src():
        assert name == name.lower()
        assert " " not in name
