"""Static checks of the package source with ``ast``, in place of a linter:
every module-level import is used, every ``__all__`` entry names
something the module defines or imports, the package exports only
names their module lists in its ``__all__``, every module-level function
and class is named outside its own definition, every module-level
assignment is read, every parameter of every ``def`` is read in its body,
no class is generated (``dataclasses``, ``namedtuple``); and, on the
imported modules, every docstring cross-reference names something that
exists."""
import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import qdtest

SOURCES = sorted(Path(qdtest.__file__).parent.glob("*.py"))
# where a definition in the package may be named: the package, its tests
# and the benchmark
READERS = sorted(path for top in ("src", "tests", "perfbench")
                 for path in (Path(__file__).resolve().parents[1] / top).rglob("*.py"))


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


def _dunder_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


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
    """A top-level import is read in the module or listed in ``__all__`` (the
    package ``__init__``'s imports are its public names and exempt), and
    every ``__all__`` entry is defined or imported at module level."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exported = _dunder_all(tree)
    if path.name != "__init__.py":
        used = _used(tree) | set(exported)
        unused = {name: line for name, line in _imported(tree).items() if name not in used}
        assert not unused, f"{path.name}: unused imports {unused}"
    missing = set(exported) - _defined(tree)
    assert not missing, f"{path.name}: __all__ lists undefined {sorted(missing)}"


def test_package_exports_are_listed_in_module_all():
    """Every name the package ``__init__`` imports from a module that has an
    ``__all__`` is listed there, so the package exports only public names."""
    package = Path(qdtest.__file__).parent
    tree = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            source = package / f"{node.module}.py"
            listed = _dunder_all(ast.parse(source.read_text(encoding="utf-8")))
            unlisted = {alias.name for alias in node.names} - set(listed)
            assert not listed or not unlisted, \
                f"__init__.py imports {sorted(unlisted)} missing from {source.name} __all__"


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


def _blank(text: str, spans) -> str:
    """The text with the lines of each (first, last) span, 1-based, emptied."""
    lines = text.splitlines()
    for first, last in spans:
        lines[first - 1:last] = [""] * (last - first + 1)
    return "\n".join(lines)


def _without_all(path: Path) -> str:
    """A reader's text without its ``__all__`` assignment: a listing alone is
    not a use."""
    text = path.read_text(encoding="utf-8")
    spans = [(node.lineno, node.end_lineno) for node in ast.parse(text).body
             if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    return _blank(text, spans)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_definitions_are_named_elsewhere(path):
    """Every module-level ``def`` and ``class`` is named, as a whole word,
    outside its own definition and ``__all__`` somewhere in the package,
    its tests or the benchmark, so no helper outlives its last caller."""
    others = [_without_all(reader) for reader in READERS
              if reader.resolve() != path.resolve()]
    unnamed = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            word = re.compile(rf"\b{node.name}\b")
            first = node.lineno - len(node.decorator_list)
            own = _blank(_without_all(path), [(first, node.end_lineno)])
            if not any(word.search(text) for text in [own, *others]):
                unnamed.append(node.name)
    assert not unnamed, f"{path.name}: definitions named nowhere else {unnamed}"


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_assignments_are_read(path):
    """Every module-level assignment other than a dunder is read in its own
    module, or imported or read as an attribute in the package, its tests or
    the benchmark, so no constant outlives its last reader.  A test module
    that defines a constant of the same name does not count as a reader."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _used(tree).union(*(_read_elsewhere(ast.parse(reader.read_text(encoding="utf-8")))
                               for reader in READERS if reader.resolve() != path.resolve()))
    assigned = [n.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                for n in ast.walk(target) if isinstance(n, ast.Name)]
    unread = [name for name in assigned
              if not (name.startswith("__") and name.endswith("__")) and name not in read]
    assert not unread, f"{path.name}: module-level assignments never read {unread}"


def _unread_parameters(tree: ast.Module) -> list[str]:
    """``def`` parameters that their body never reads, as ``name.param``.

    A zero-argument ``super()`` reads the first parameter.  Overrides of
    ``QuantumOp._apply`` take the interface's parameters whether they read
    them or not, and lambdas are left out."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name == "_apply":
            continue
        spec = node.args
        params = [a.arg for a in (*spec.posonlyargs, *spec.args, *spec.kwonlyargs,
                                  spec.vararg, spec.kwarg) if a is not None]
        inner = [n for stmt in node.body for n in ast.walk(stmt)]
        read = {n.id for n in inner if isinstance(n, ast.Name)}
        if params and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                          and n.func.id == "super" and not n.args for n in inner):
            read.add(params[0])
        unread.extend(f"{node.name}.{p}" for p in params if p not in read)
    return unread


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parameters_are_read(path):
    """Every parameter of every ``def`` is read in its body, so no argument
    is passed only to be dropped."""
    unread = _unread_parameters(ast.parse(path.read_text(encoding="utf-8")))
    assert not unread, f"{path.name}: parameters never read {unread}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_generated_classes(path):
    """No module imports ``dataclasses`` or names ``namedtuple`` or
    ``NamedTuple``: a class whose methods are generated compiles them at
    every import, so value classes derive from :class:`qdtest.record.Record`
    instead."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "dataclasses" not in modules, f"{path.name} imports dataclasses"
    assert not names & {"namedtuple", "NamedTuple"}, f"{path.name} builds a named tuple"
