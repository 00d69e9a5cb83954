"""The package's runtime dependency stays numpy only, with no hidden caches."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ncgraph").glob("*.py"))
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
