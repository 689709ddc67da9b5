"""Every modify path binds its executor in one place.

:func:`repro.core.modify.bind_strategy` is the only code that chooses
between the packed-code kernels and the reference executors, and the
only place ``engine="auto"`` catches the key packer's ``TypeError``.
This test reads the source tree and fails when a module binds the
kernels itself or grows its own fallback — the fork this function
replaced (one copy each in the dispatcher, the enforcer, the external
and the streaming variants).

The key packer's own catch (``fastpath/packed.py``) and the cache's
``(TypeError, LookupError)`` are not engine fallbacks; they live outside
the two packages checked here.

Likewise there is one external sort on the serving paths,
:func:`repro.core.external_modify.external_sort`: the replacement-
selection ``ExternalMergeSort`` is paper substrate, used only inside
``sorting/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _modules(*packages: str):
    for package in packages:
        for path in sorted((SRC / package).rglob("*.py")):
            yield path.relative_to(SRC).as_posix(), ast.parse(
                path.read_text(encoding="utf-8")
            )


def _importers_of_bind() -> set[str]:
    found = set()
    for name, tree in _modules("."):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ImportFrom)
                and (node.module or "").endswith("execute")
                and any(alias.name == "bind" for alias in node.names)
            ):
                found.add(name)
    return found


def _type_error_handlers(tree: ast.Module) -> list[str]:
    """The innermost enclosing function of every handler that catches
    ``TypeError`` (``"<module>"`` outside any function)."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(t, ast.Name) and t.id == "TypeError" for t in caught):
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_only_the_dispatcher_binds_the_kernels():
    # fastpath/execute.py defines bind (and fast_sort, its thin wrapper).
    assert _importers_of_bind() == {"core/modify.py"}


def test_bind_strategy_is_the_only_engine_fallback():
    handlers = {
        name: _type_error_handlers(tree)
        for name, tree in _modules("core", "engine")
    }
    found = {name: where for name, where in handlers.items() if where}
    assert found == {"core/modify.py": ["bind_strategy"]}


def test_replacement_selection_stays_in_sorting():
    substrate = {"ExternalMergeSort", "generate_runs_replacement_selection"}
    found = set()
    for name, tree in _modules("."):
        if name.startswith("sorting/"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and substrate & {
                alias.name for alias in node.names
            }:
                found.add(name)
    assert found == set()
