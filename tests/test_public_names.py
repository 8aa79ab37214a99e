"""Every name qpaths exports has a caller outside the tests.

A name counts as called when one of these holds, read from the syntax
trees of the sources (a word search would also count local variables
and keyword arguments that share a name):

* a module of the package other than __init__ imports it from a qpaths
  module;
* its defining module loads it outside its own def or class, where no
  parameter or local of the same name shadows it;
* a benchmark module (qbench/*.py) reads it as an attribute of the
  imported package (``qp.<name>``) or imports it from qpaths.  Naming a
  function in the benchmark's trace table is not a call: a traced name
  with no caller reads 0 and shows nothing.

The public methods and properties of every exported class are guarded
too.  Each must be read as an attribute (``obj.<name>``) somewhere in
the package outside its own def, or anywhere in a benchmark module.
"""

import ast
import inspect
from functools import cached_property
from pathlib import Path

import qpaths

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qpaths"
BENCHMARK = ROOT / "qbench"

# serialize is the documented inverse of parse, the writer of the round-trip tests
EXEMPT = {"serialize"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _function_locals(node) -> set[str]:
    """Parameters and assigned names: a load of one of these is not a module name."""
    args = node.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    return ({a.arg for a in params if a is not None}
            | {n.id for n in ast.walk(node)
               if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)})


def _module_loads(tree: ast.Module) -> set[str]:
    """Top-level names loaded outside their own def or class, and not shadowed there."""
    defined = _top_level_names(tree)
    used = set()

    def visit(node, own, shadowed):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            shadowed = shadowed | _function_locals(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in defined and node.id != own and node.id not in shadowed:
                used.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, own, shadowed)

    for top in tree.body:
        visit(top, top.name if isinstance(top, DEFINITIONS) else None, frozenset())
    return used


def _package_callers() -> set[str]:
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "qpaths"):
                used.update(alias.name for alias in node.names)
        used |= _module_loads(tree)
    return used


def _benchmark_callers() -> set[str]:
    used = set()
    for path in BENCHMARK.glob("*.py"):
        tree = _tree(path)
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import)
                   for alias in node.names if alias.name == "qpaths"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qpaths":
                used.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    assert [name for name in qpaths.__all__ if not hasattr(qpaths, name)] == []
    used = _package_callers() | _benchmark_callers()
    assert sorted(set(qpaths.__all__) - used - EXEMPT) == []
    # an exemption that gained a caller, or left __all__, is stale
    assert EXEMPT <= set(qpaths.__all__) - used


MEMBER_KINDS = (property, cached_property, classmethod, staticmethod)


def _public_members() -> set[tuple[str, str, str]]:
    """(module, class, member) for each public method or property of an exported class."""
    members = set()
    for name in qpaths.__all__:
        cls = getattr(qpaths, name)
        if not inspect.isclass(cls):
            continue
        for member, value in vars(cls).items():
            if not member.startswith("_") and (isinstance(value, MEMBER_KINDS)
                                               or inspect.isfunction(value)):
                members.add((cls.__module__.rpartition(".")[2], cls.__qualname__, member))
    return members


def _attribute_loads(tree: ast.Module, module: str) -> set[tuple[str, tuple | None]]:
    """(attribute, owner) for each attribute read; owner is the method the read is in."""
    loads = set()

    def visit(node, owner):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loads.add((node.attr, owner))
        for child in ast.iter_child_nodes(node):
            if isinstance(node, ast.ClassDef) and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (module, node.name, child.name))
            else:
                visit(child, owner)

    visit(tree, None)
    return loads


def test_every_public_member_of_an_exported_class_has_a_caller_outside_the_tests():
    package = set()
    for path in PACKAGE.glob("*.py"):
        package |= _attribute_loads(_tree(path), path.stem)
    benchmark = {attr for path in BENCHMARK.glob("*.py")
                 for attr, _ in _attribute_loads(_tree(path), path.stem)}
    members = _public_members()
    assert ("measurement", "PathwayNetwork", "of") in members
    assert ("measurement", "PathwayNetwork", "classes") in members
    uncalled = [member for member in members
                if member[2] not in benchmark
                and not any(attr == member[2] and owner != member
                            for attr, owner in package)]
    assert sorted(uncalled) == []
