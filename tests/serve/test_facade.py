"""The stable facade is real: examples import only public names.

``docs/API.md`` declares the stable import surface — the ``repro``
facade plus the modules marked *stable* in its Stability table.  This
test parses that table and holds every shipped ``examples/*.py`` to
it, so the docs, the facade, and the examples cannot drift apart
silently.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parents[2]
API_MD = REPO / "docs" / "API.md"
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def stable_modules() -> set[str]:
    """Modules marked ``stable`` in docs/API.md's Stability table."""
    text = API_MD.read_text()
    mods = set()
    for line in text.splitlines():
        m = re.match(r"\|\s*`(repro[\w.]*)`\s*\|\s*stable\s*\|", line)
        if m:
            mods.add(m.group(1))
    return mods


def repro_imports(path: Path):
    """Yield (module, names) for every repro import in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    yield alias.name, []
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if mod == "repro" or mod.startswith("repro."):
                yield mod, [a.name for a in node.names]


def test_stability_table_exists_and_includes_facade():
    mods = stable_modules()
    assert "repro" in mods
    assert "repro.serve" in mods
    assert len(mods) >= 10


def test_stability_table_modules_all_import():
    for mod in sorted(stable_modules()):
        __import__(mod)


def test_facade_all_resolves():
    assert repro.__version__
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_removed_pool_surface_is_off_the_facade_and_the_table():
    # PR 22 deleted the worker pool; its names must not linger in
    # ``__all__``, on ``repro.exec``, or in the stability table.
    import repro.exec

    for name in ("parallel_modify", "resolve_workers", "RetryPolicy"):
        assert name not in repro.__all__
        assert not hasattr(repro, name)
    for name in ("RetryPolicy", "Fault", "parse_faults"):
        assert not hasattr(repro.exec, name)
    assert not any(m.startswith("repro.parallel") for m in stable_modules())
    row = next(
        line for line in API_MD.read_text().splitlines()
        if line.startswith("| `repro.exec` |")
    )
    assert "RetryPolicy" not in row and "parse_faults" not in row


def test_serve_surface_is_on_the_facade():
    from repro.serve import OrderService, ServiceOverloadError

    assert repro.OrderService is OrderService
    assert repro.ServiceOverloadError is ServiceOverloadError


@pytest.mark.parametrize(
    "example", EXAMPLES, ids=[p.name for p in EXAMPLES]
)
def test_examples_import_only_public_names(example):
    allowed = stable_modules()
    problems = []
    for mod, names in repro_imports(example):
        if mod == "repro":
            for name in names:
                if name not in repro.__all__:
                    problems.append(
                        f"from repro import {name}: not in repro.__all__"
                    )
        elif mod not in allowed:
            problems.append(f"{mod}: not marked stable in docs/API.md")
    assert not problems, f"{example.name}: {problems}"


def test_examples_exist():
    assert any(p.name == "order_service.py" for p in EXAMPLES)
    assert len(EXAMPLES) >= 10
