"""The package's runtime dependency stays numpy only, with no hidden caches,
one way to hold a derived form, no dead private names and no export that
nothing outside the tests uses."""

import ast
import re
import sys
from pathlib import Path

import pytest

import ncgraph

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ncgraph").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ncgraph"}


def imported_modules(tree):
    """Top-level names of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_the_package(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = sorted(set(imported_modules(tree)) - ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}"


MEMO_DECORATORS = {"lru_cache", "cache"}


def functools_memos(tree):
    """Names of functools' memoising decorators that a module reaches."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from (a.name for a in node.names if a.name in MEMO_DECORATORS)
        elif (isinstance(node, ast.Attribute) and node.attr in MEMO_DECORATORS
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            yield node.attr


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_process_wide_memo_caches(path):
    # memoised forms live on the object they describe and are freed with it,
    # so no cap decides what is kept
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not list(functools_memos(tree)), path.name


def literal_memo_keys(tree):
    """Line numbers where a ``_memo`` is subscripted, or has ``.get`` or
    ``.pop`` called, with a string literal for its key."""
    def is_memo(node):
        return isinstance(node, ast.Attribute) and node.attr == "_memo"

    def is_str(node):
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_memo(node.value) and is_str(node.slice):
            yield node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("get", "pop") and is_memo(node.func.value)
              and node.args and is_str(node.args[0])):
            yield node.lineno


def imports_cached_property(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(a.name == "cached_property" for a in node.names):
                return True
        elif isinstance(node, ast.Attribute) and node.attr == "cached_property":
            return True
    return False


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_memo_keys_come_from_the_memo_helper(path):
    # every derived form is held by cayley._memoised under its function's
    # name; a key spelled by hand, or a second way to hold a form, can drift
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not list(literal_memo_keys(tree)), path.name
    assert not imports_cached_property(tree), path.name


def test_sources_found():
    assert len(SOURCES) >= 10


def module_private_names(tree):
    """Private names a module defines at its top level: functions, classes
    and assigned constants whose names start with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.startswith("__"))


def loaded_names(tree):
    """Every name a module reads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_dead_private_names():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    read = {name for tree in trees.values() for name in loaded_names(tree)}
    dead = sorted(f"{module}:{name}" for module, tree in trees.items()
                  for name in module_private_names(tree) if name not in read)
    assert not dead, f"private names defined but never read: {dead}"


# the code that uses the package: its own modules, the demos and the bench
# drivers (not the bench's tests)
READERS = ([p for p in SOURCES if p.name != "__init__.py"]
           + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")))


def used_names(tree):
    """Every name a module reads or imports."""
    yield from loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.split(".")[-1] for alias in node.names)


def test_every_export_has_a_caller():
    used = {name for path in READERS
            for name in used_names(ast.parse(path.read_text(), filename=str(path)))}
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    uncalled = sorted(name for name in ncgraph.__all__
                      if not name.startswith("__") and name not in used | readme)
    assert not uncalled, f"exported but never used outside the tests: {uncalled}"
