"""Every module's ``__all__`` names something, and the package re-exports
only names its modules declare public, so a deleted name leaves no stale
entry behind.  Every module uses what it imports (a function, what it
imports itself), and every private module-level function or class is
referenced beyond its own definition, so a deletion leaves no orphan import
or helper behind."""

import ast
import importlib
from pathlib import Path

import pytest

import rbtlab

PACKAGE = Path(rbtlab.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"rbtlab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_are_in_module_all():
    imports = [
        node
        for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(f"rbtlab.{node.module}")
        assert [a.name for a in node.names if a.name not in module.__all__] == [], node.module
        assert all(hasattr(rbtlab, a.asname or a.name) for a in node.names)


# Imported only so that perfbench/tracer.py can wrap them where their
# callers look them up; each is on an import marked ``# noqa: F401``.
KEPT_FOR_TRACER = {
    ("cli", "reconstruct_unital"),
    ("cli", "exhaustive_set"),
    ("pipeline", "joint_fit"),
}


def imports_by_scope(node, scope):
    """``(scope, import)`` for every import under ``node``: the scope of an
    import inside a function is the innermost such function, else ``scope``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield scope, child
        inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from imports_by_scope(child, inner)


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"))
def test_every_import_is_used(name):
    """A module-level import is used somewhere in the module (or exported
    through ``__all__``); a function-local one within its own function."""
    source = (PACKAGE / f"{name}.py").read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            exported.update(elt.value for elt in node.value.elts)
    unused = set()
    for scope, node in imports_by_scope(tree, tree):
        if getattr(node, "module", "") == "__future__":
            continue
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        if scope is tree:
            used |= exported
        for alias in node.names:
            bound = (alias.asname or alias.name).split(".")[0]
            if bound not in used:
                unused.add(bound)
                assert lines[node.lineno - 1].endswith("# noqa: F401"), (name, bound)
    assert unused == {n for module, n in KEPT_FOR_TRACER if module == name}


def test_every_private_definition_is_referenced():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}

    def references(node, name) -> int:
        return sum(
            (isinstance(n, ast.Name) and n.id == name)
            or (isinstance(n, ast.Attribute) and n.attr == name)
            for n in ast.walk(node)
        )

    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            outside = sum(references(t, node.name) for t in trees.values()) - references(node, node.name)
            if not outside:
                orphans.append(f"{module}.{node.name}")
    assert orphans == []
