"""The package ships only definitions that a shipped caller reaches.

A pure text scan: every public top-level ``def`` or ``class`` in
``src/repro``, and every public method or property of a public class,
must be named somewhere outside its own definition, in the package
itself, the examples, the benchmarks, ``perfbench/``, ``docs/``,
README.md or EXPERIMENTS.md.  A name that only tests use (``tests/``
and ``perfbench/tests/``) is dead weight in the package.  Imports
(re-exports in a package ``__init__.py`` included) and ``__all__`` lists
do not count as uses, since they reach nothing by themselves.  The scan
sees names, not calls, so a name mentioned in shipped prose counts as
reached, and a member that shares its name with a live one is hidden
rather than flagged.

An AST scan adds the converse check inside each module: a module-level
import that the module never uses is flagged too.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
SHIPPED_TREES = ("src", "examples", "benchmarks", "perfbench", "docs")
SHIPPED_FILES = ("README.md", "EXPERIMENTS.md")

#: Names kept although only tests reach them, each with its reason.
ALLOWLIST = {
    "record_confirmation": "the pair of OnlineTrainer.record_dismissal, "
                           "which an example calls",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _span(node):
    """First (decorators included) and last line of a definition."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return first, node.end_lineno


def _excluded_spans(tree):
    """Line ranges of a module that define, import or list names.

    Top-level definitions are owned by their name; methods of a top-level
    class by ``Class.name`` (a property's getter and setter share one
    owner).  Imports and ``__all__`` are owned by nobody (``None``).
    """
    spans = []
    for node in tree.body:
        if isinstance(node, _DEFINITIONS):
            spans.append((node.name, *_span(node)))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFINITIONS):
                        spans.append((f"{node.name}.{item.name}",
                                      *_span(item)))
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


def _package_modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def public_definitions():
    """(module path, owner, name) of every public top-level def or class
    and every public method or property of a public class.

    The owner is the key its definition's span carries: the name itself
    for a top-level definition, ``Class.name`` for a member.
    """
    for path, tree in _package_modules():
        module = path.relative_to(PACKAGE.parent)
        for node in tree.body:
            if (not isinstance(node, _DEFINITIONS)
                    or node.name.startswith("_")):
                continue
            yield module, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                            and not item.name.startswith("_")):
                        yield module, f"{node.name}.{item.name}", item.name


def unreached_names():
    """``module::name`` (``module::Class.name`` for a member) of each
    public definition no shipped file names outside its own definition."""
    definitions = sorted(set(public_definitions()))
    names = {name for _, _, name in definitions}
    # name -> owners of every line it appears on (None: a plain use).
    seen = {}
    word = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
    for path, lines, spans in _shipped_texts():
        for number, line in enumerate(lines, start=1):
            owners = {owner for owner, first, last in spans
                      if first <= number <= last}
            if None in owners:
                continue
            for token in word.findall(line):
                if token in names:
                    seen.setdefault(token, []).append(owners)
    unreached = []
    for module, owner, name in definitions:
        # A use is a line outside this definition's own span.
        if not any(owner not in owners for owners in seen.get(name, ())):
            unreached.append(f"{module}::{owner}")
    return unreached


def _annotation_names(tree):
    """Names used inside string annotations (``Optional["Config"]``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for argument in (arguments.posonlyargs + arguments.args
                             + arguments.kwonlyargs
                             + [arguments.vararg, arguments.kwarg]):
                if argument is not None and argument.annotation is not None:
                    annotations.append(argument.annotation)
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in annotations:
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                try:
                    parsed = ast.parse(part.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(parsed)
                             if isinstance(n, ast.Name))
    return names


def unused_imports():
    """``module::name`` of each module-level import a non-``__init__``
    module of the package never uses (``__future__`` is exempt)."""
    unused = []
    for path, tree in _package_modules():
        if path.name == "__init__.py":
            continue
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                imported.update((alias.asname or alias.name).split(".")[0]
                                for alias in node.names)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        used |= _annotation_names(tree)
        module = path.relative_to(PACKAGE.parent)
        unused.extend(f"{module}::{name}" for name in sorted(imported - used))
    return unused


def _name(entry):
    """The bare name of a ``module::name`` or ``module::Class.name``."""
    return entry.split("::")[1].split(".")[-1]


def test_every_public_definition_has_a_shipped_caller():
    unreached = unreached_names()
    assert [n for n in unreached if _name(n) not in ALLOWLIST] == []
    # An allowlisted name that a shipped caller now reaches is a stale entry.
    assert sorted(ALLOWLIST) == sorted(_name(n) for n in unreached)
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_every_module_level_import_is_used():
    assert unused_imports() == []
