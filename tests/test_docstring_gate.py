"""Docstring coverage of ``src/`` under the ``[tool.interrogate]`` settings.

CI runs ``interrogate -vv src``; this test applies the same settings from
``pyproject.toml`` with :mod:`ast` so the gate also holds where interrogate
is not installed.  It counts what interrogate counts under those settings:
every module, class, function and method, minus ``__init__`` methods,
other dunders (magic), ``__private`` and ``_semiprivate`` names and
functions nested in functions.  Members of an ignored class are still
counted, as interrogate visits them.  Coverage below ``fail-under`` fails.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

# The standard library reads TOML from Python 3.11 on; older interpreters
# skip the gate (CI's docstring-coverage job runs interrogate itself).
tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent

SETTINGS = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["interrogate"]

_DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def ignored(node: ast.AST, parent: ast.AST) -> bool:
    """True when the settings leave ``node`` out of the count."""
    name = node.name
    dunder = name.startswith("__") and name.endswith("__")
    if isinstance(node, _FUNCTIONS):
        if SETTINGS.get("ignore-nested-functions") and isinstance(parent, _FUNCTIONS):
            return True
        if name == "__init__" and SETTINGS.get("ignore-init-method"):
            return True
        if dunder and SETTINGS.get("ignore-magic"):
            return True
    if dunder:
        return False
    if name.startswith("__"):
        return bool(SETTINGS.get("ignore-private"))
    return name.startswith("_") and bool(SETTINGS.get("ignore-semiprivate"))


def counted(tree: ast.Module) -> Iterator[Tuple[str, bool]]:
    """``(name, documented)`` for the module and each counted definition."""
    yield "<module>", bool((ast.get_docstring(tree) or "").strip())
    stack: List[Tuple[ast.AST, str]] = [(tree, "")]
    while stack:
        parent, prefix = stack.pop()
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, _DEFINITIONS):
                stack.append((node, prefix))
                continue
            qualname = prefix + node.name
            if not ignored(node, parent):
                yield qualname, bool((ast.get_docstring(node) or "").strip())
            stack.append((node, qualname + "."))


def source_files() -> Iterator[Path]:
    excluded = set(SETTINGS.get("exclude", ()))
    for path in sorted((ROOT / "src").rglob("*.py")):
        if not excluded.intersection(path.relative_to(ROOT).parts):
            yield path


def test_docstring_coverage_meets_fail_under():
    total = 0
    missing = []
    for path in source_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, documented in counted(tree):
            total += 1
            if not documented:
                missing.append(f"{path.relative_to(ROOT)}:{name}")
    coverage = 100.0 * (total - len(missing)) / total
    assert coverage >= SETTINGS["fail-under"], (
        f"docstring coverage {coverage:.1f}% < {SETTINGS['fail-under']}%; "
        f"undocumented: {missing}"
    )


def test_walk_applies_the_ignore_rules():
    tree = ast.parse(
        '"""Module."""\n'
        "class Public:\n"
        "    def __init__(self): pass\n"
        "    def __eq__(self, other): pass\n"
        "    def _semi(self): pass\n"
        "    def __private(self): pass\n"
        "    def method(self):\n"
        "        def nested(): pass\n"
        "class _Hidden:\n"
        "    def shown(self): pass\n"
        "def function():\n"
        '    """Documented."""\n'
    )
    assert sorted(counted(tree)) == [
        ("<module>", True), ("Public", False), ("Public.method", False),
        ("_Hidden.shown", False), ("function", True),
    ]
