"""Static checks of the package source with ``ast``, in place of a linter:
every module-level import is used, each definition has one name (the
package ``__init__`` binds only ``__version__`` and no module assigns
``__all__``), every module-level function and class is named in program
code outside its own definition, every public method and property is read
as an attribute in program code, every module-level assignment is read,
every parameter of every ``def`` is read in its body (an operator's
``apply_to`` may leave its ``inverse`` and ``ledger`` unread), no class is
generated (``dataclasses``, ``namedtuple``); nothing from ``np.linalg`` is
called but ``norm``; and, on the imported modules, every docstring
cross-reference names something that exists.

Program code is the package and the benchmark, the paths a run takes; a
name in a docstring, a comment or any other string is not a use."""
import ast
import functools
import importlib
import inspect
import re
from pathlib import Path

import pytest

import qdtest

SOURCES = sorted(Path(qdtest.__file__).resolve().parent.glob("*.py"))
# the program paths, where every definition, member and constant of the
# package must be read: the package (its CLI and selfcheck) and the benchmark
PROGRAM = sorted(path for top in ("src", "perfbench")
                 for path in (Path(__file__).resolve().parents[1] / top).rglob("*.py"))


@functools.cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names the module reads, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return used


def _read_elsewhere(tree: ast.Module) -> set[str]:
    """Names another module can read from a package module: those it
    imports by name and the attributes it reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _code_names(tree: ast.AST) -> set[str]:
    """Names that code in the tree reads: names loaded, attributes and names
    imported.  A docstring, a comment or another string is not code."""
    return _used(tree) | _read_elsewhere(tree)


def _defined(tree: ast.Module) -> set[str]:
    """Names bound at module level by definitions and assignments."""
    names = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_used_and_exports_defined(path):
    """Every top-level import is read in the module, so a module names only
    what it defines or reads: no import stands as a second name (an export)
    for another module's definition."""
    tree = _tree(path)
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_each_definition_has_one_name():
    """The package ``__init__`` binds only ``__version__``, and no module
    assigns ``__all__``: the package offers each definition under the name
    in its own module, with no second one as ``qdtest.<name>`` or in a
    star-import list."""
    assert _defined(_tree(Path(qdtest.__file__).resolve())) == {"__version__"}
    listing = [path.name for path in SOURCES if "__all__" in _defined(_tree(path))]
    assert not listing, f"modules that assign __all__: {listing}"


# a Sphinx cross-reference such as :func:`name` or :class:`~qdtest.module.Name`
XREF = re.compile(r":(?:func|class|mod|meth|attr):`~?([\w.]+)`")


def _module_name(path: Path) -> str:
    return "qdtest" if path.stem == "__init__" else f"qdtest.{path.stem}"


def _has(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_docstring_cross_references_resolve(path):
    """Every :func:, :class:, :mod:, :meth: and :attr: target in the module
    resolves: relative to the module, as an absolute ``qdtest.*`` name, or
    as a member of a class the module defines.  A rename that leaves a
    reference stale fails here."""
    for source in SOURCES:  # so that qdtest.<module> is an attribute of qdtest
        importlib.import_module(_module_name(source))
    name = _module_name(path)
    module = importlib.import_module(name)
    classes = [cls for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__ == name]
    stale = [target for target in XREF.findall(path.read_text(encoding="utf-8"))
             if not (_has(module, target)
                     or (target.startswith("qdtest.") and _has(qdtest, target[7:]))
                     or any(_has(cls, target) for cls in classes))]
    assert not stale, f"{path.name}: unresolved cross-references {stale}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_definitions_are_named_elsewhere(path):
    """Every module-level ``def`` and ``class`` is named in program code
    outside its own definition: in its own module or elsewhere in the
    package or the benchmark.  A test is no reader, so no helper outlives
    its last caller on a program path."""
    tree = _tree(path)
    named = set().union(*(_code_names(_tree(reader)) for reader in PROGRAM if reader != path))
    unnamed = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name not in named | _code_names(
                   ast.Module([stmt for stmt in tree.body if stmt is not node], []))]
    assert not unnamed, f"{path.name}: definitions named nowhere else {unnamed}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_members_are_read(path):
    """Every public method and property of a class in the module is read as
    an attribute somewhere in the package or the benchmark.  Names with a
    leading underscore are exempt: the class itself or the interpreter
    calls them."""
    read = set().union(*(_read_elsewhere(_tree(reader)) for reader in PROGRAM))
    unread = [f"{cls.name}.{member.name}" for cls in _tree(path).body
              if isinstance(cls, ast.ClassDef)
              for member in cls.body
              if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not member.name.startswith("_") and member.name not in read]
    assert not unread, f"{path.name}: members never read in program code {unread}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_assignments_are_read(path):
    """Every module-level assignment other than a dunder is read in its own
    module, or imported or read as an attribute elsewhere in the package or
    the benchmark, so no constant outlives its last reader on a program
    path."""
    tree = _tree(path)
    read = _used(tree).union(*(_read_elsewhere(_tree(reader))
                               for reader in PROGRAM if reader != path))
    assigned = [n.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                for n in ast.walk(target) if isinstance(n, ast.Name)]
    unread = [name for name in assigned
              if not (name.startswith("__") and name.endswith("__")) and name not in read]
    assert not unread, f"{path.name}: module-level assignments never read {unread}"


def _unread_parameters(tree: ast.Module) -> list[str]:
    """``def`` parameters that their body never reads, as ``name.param``.

    A zero-argument ``super()`` reads the first parameter.  An operator's
    ``apply_to`` takes the interface's ``inverse`` and ``ledger`` whether it
    reads them or not: a leaf ignores the ledger, and a self-inverse leaf
    the direction.  Its ``state`` and ``controls`` are read like any other
    parameter, and lambdas are left out."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        spec = node.args
        params = [a.arg for a in (*spec.posonlyargs, *spec.args, *spec.kwonlyargs,
                                  spec.vararg, spec.kwarg) if a is not None]
        inner = [n for stmt in node.body for n in ast.walk(stmt)]
        read = {n.id for n in inner if isinstance(n, ast.Name)}
        if params and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                          and n.func.id == "super" and not n.args for n in inner):
            read.add(params[0])
        if node.name == "apply_to":
            read |= {"inverse", "ledger"}
        unread.extend(f"{node.name}.{p}" for p in params if p not in read)
    return unread


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parameters_are_read(path):
    """Every parameter of every ``def`` is read in its body, so no argument
    is passed only to be dropped."""
    unread = _unread_parameters(_tree(path))
    assert not unread, f"{path.name}: parameters never read {unread}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_generated_classes(path):
    """No module imports ``dataclasses`` or names ``namedtuple`` or
    ``NamedTuple``: a class whose methods are generated compiles them at
    every import, so value classes derive from :class:`qdtest.record.Record`
    instead."""
    tree = _tree(path)
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "dataclasses" not in modules, f"{path.name} imports dataclasses"
    assert not names & {"namedtuple", "NamedTuple"}, f"{path.name} builds a named tuple"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_lapack(path):
    """Nothing reads ``linalg`` but ``linalg.norm``: the Haar unitary is built
    without LAPACK, so a run maps none of it."""
    calls = {node.attr for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
             and node.value.attr == "linalg"}
    assert calls <= {"norm"}, f"{path.name} calls np.linalg.{sorted(calls - {'norm'})}"
