"""The package ships only definitions that a shipped caller reaches.

A pure text scan: every public top-level ``def`` or ``class`` in
``src/repro`` must be named somewhere outside its own definition, in the
package itself, the examples, the benchmarks, ``perfbench/``, ``docs/``,
README.md or EXPERIMENTS.md.  A name that only tests use (``tests/``
and ``perfbench/tests/``) is dead weight in the package.  Imports
(re-exports in a package ``__init__.py`` included) and ``__all__`` lists
do not count as uses, since they reach nothing by themselves.  The scan
sees names, not calls, so a name mentioned in shipped prose counts as
reached.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
SHIPPED_TREES = ("src", "examples", "benchmarks", "perfbench", "docs")
SHIPPED_FILES = ("README.md", "EXPERIMENTS.md")

#: Names kept although only tests reach them, each with its reason.
ALLOWLIST = {}


def _excluded_spans(tree):
    """Line ranges of a module that define, import or list names."""
    spans = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            spans.append((node.name, first, node.end_lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)):
            spans.append((None, node.lineno, node.end_lineno))
    return spans


def _shipped_texts():
    """(path, text lines, spans) for every shipped source and document."""
    paths = [REPO / name for name in SHIPPED_FILES]
    for tree in SHIPPED_TREES:
        for path in sorted((REPO / tree).rglob("*")):
            if (path.suffix in (".py", ".md")
                    and "tests" not in path.relative_to(REPO).parts):
                paths.append(path)
    for path in paths:
        text = path.read_text(encoding="utf-8")
        spans = []
        if path.suffix == ".py":
            spans = _excluded_spans(ast.parse(text))
        yield path, text.splitlines(), spans


def public_definitions():
    """(module path, name) of every public top-level def or class."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.relative_to(PACKAGE.parent), node.name


def unreached_names():
    """``module::name`` of each public definition no shipped file names
    outside its own definition."""
    definitions = list(public_definitions())
    used = set()
    names = {name for _, name in definitions}
    word = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
    for path, lines, spans in _shipped_texts():
        for number, line in enumerate(lines, start=1):
            owners = {name for name, first, last in spans
                      if first <= number <= last}
            if None in owners:
                continue
            for token in word.findall(line):
                if token in names and token not in owners:
                    used.add(token)
    return sorted(f"{module}::{name}" for module, name in definitions
                  if name not in used)


def test_every_public_definition_has_a_shipped_caller():
    unreached = unreached_names()
    assert [n for n in unreached if n.split("::")[1] not in ALLOWLIST] == []
    # An allowlisted name that a shipped caller now reaches is a stale entry.
    assert sorted(ALLOWLIST) == sorted(n.split("::")[1] for n in unreached)
    assert all(reason.strip() for reason in ALLOWLIST.values())
