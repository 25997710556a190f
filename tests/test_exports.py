"""Every module's ``__all__`` names something, and the package re-exports
only names its modules declare public, so a deleted name leaves no stale
entry behind."""

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
