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
