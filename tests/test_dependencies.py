"""The package's runtime dependency stays numpy only, with no hidden caches,
one way to hold a derived form, no dead private names, no export that
nothing outside the tests uses and no option that every caller sets the same
way."""

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


def package_modules(tree):
    """Names a module binds to the package or one of its modules:
    ``import ncgraph as ng``, ``from ncgraph import catalog``,
    ``from . import canon``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names
                        if alias.name.split(".")[0] == "ncgraph")
        elif isinstance(node, ast.ImportFrom) and (
                node.module is None if node.level else node.module == "ncgraph"):
            yield from (alias.asname or alias.name for alias in node.names)


def used_names(tree):
    """Every name a module reads bare, imports, or reads as an attribute of
    the package or one of its modules.  An attribute of anything else, such
    as a record field that shares an export's name, is not a use."""
    modules = set(package_modules(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.split(".")[-1] for alias in node.names)


def test_every_export_has_a_caller():
    used = {name for path in READERS
            for name in used_names(ast.parse(path.read_text(), filename=str(path)))}
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    uncalled = sorted(name for name in ncgraph.__all__
                      if not name.startswith("__") and name not in used | readme)
    assert not uncalled, f"exported but never used outside the tests: {uncalled}"


def defaulted_parameters(tree):
    """(function, parameter, default) for every parameter with a default of
    every function a module defines, methods and nested functions included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            yield from ((node.name, arg.arg, d) for arg, d in zip(defaulted, args.defaults))
            yield from ((node.name, arg.arg, d) for arg, d in zip(args.kwonlyargs, args.kw_defaults)
                        if d is not None)


def positional_parameters(tree):
    """(function, positional parameter names without self/cls) per definition."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = (a.arg for a in node.args.posonlyargs + node.args.args)
            yield node.name, tuple(n for n in names if n not in ("self", "cls"))


def passed_arguments(tree, signatures):
    """(function, parameter, argument) for every argument a call passes by
    keyword, or by position to a function name defined once with one
    signature.  A call is matched to a definition by name alone."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name is None:
            continue
        yield from ((name, kw.arg, kw.value) for kw in node.keywords if kw.arg is not None)
        if len(signatures.get(name, ())) == 1:
            (params,) = signatures[name]
            yield from ((name, p, v) for p, v in zip(params, node.args)
                        if not isinstance(v, ast.Starred))


def constant(node):
    """A literal's type and value, so that True and 1 differ; None otherwise."""
    return (type(node.value), node.value) if isinstance(node, ast.Constant) else None


def test_no_option_that_every_caller_sets_the_same_way():
    # a defaulted parameter that every call site in the package sets to one
    # constant, not its default, is an option with one value in use: the
    # other behaviour lives on only for the tests
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    defaults, signatures, passed = {}, {}, {}
    for tree in trees:
        for func, param, default in defaulted_parameters(tree):
            defaults.setdefault((func, param), set()).add(constant(default))
        for func, params in positional_parameters(tree):
            signatures.setdefault(func, set()).add(params)
    for tree in trees:
        for func, param, value in passed_arguments(tree, signatures):
            if (func, param) in defaults:
                passed.setdefault((func, param), set()).add(constant(value))
    knobs = sorted(f"{func}.{param}" for (func, param), values in passed.items()
                   if None not in values and len(values) == 1
                   and values != defaults[(func, param)])
    assert not knobs, f"every call site sets these to the same non-default constant: {knobs}"
