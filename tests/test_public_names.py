"""Every name qpaths exports has a caller outside the tests.

A name counts as called when one of these holds, read from the syntax
trees of the sources (a word search would also count local variables
and keyword arguments that share a name):

* a module of the package other than __init__ imports it from a qpaths
  module;
* its defining module loads it outside its own def or class, where no
  parameter or local of the same name shadows it;
* a benchmark module (qbench/*.py) reads it as an attribute of the
  imported package (``qp.<name>``), imports it from qpaths, or names it
  in the table of functions the benchmark traces (``TRACED``), whose
  times and call counts the benchmark reports.
"""

import ast
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
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)):
                for functions in ast.literal_eval(node.value).values():
                    used.update(functions)
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    assert [name for name in qpaths.__all__ if not hasattr(qpaths, name)] == []
    used = _package_callers() | _benchmark_callers()
    assert sorted(set(qpaths.__all__) - used - EXEMPT) == []
    # an exemption that gained a caller, or left __all__, is stale
    assert EXEMPT <= set(qpaths.__all__) - used
