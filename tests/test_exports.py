"""Every name a module lists in ``__all__`` exists, so ``from <module> import *`` works,
and every one of them has a user in the package."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import triangulab

MODULES = ["triangulab"] + [f"triangulab.{m.name}" for m in pkgutil.iter_modules(triangulab.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


def _exports(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _loads(node: ast.AST, skip: str = "") -> tuple:
    """Names and ``(base, attr)`` attribute pairs loaded under ``node``,
    leaving out every ``def``/``class`` named ``skip``."""
    names, attrs = set(), set()
    stack = [node]
    while stack:
        here = stack.pop()
        if isinstance(here, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and here.name == skip:
            continue
        if isinstance(here, ast.Name) and isinstance(here.ctx, ast.Load):
            names.add(here.id)
        elif isinstance(here, ast.Attribute) and isinstance(here.value, ast.Name):
            attrs.add((here.value.id, here.attr))
        stack.extend(ast.iter_child_nodes(here))
    return names, attrs


def test_every_public_name_has_a_user():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(triangulab.__file__).parent.glob("*.py"))
        if path.name != "__init__.py"
    }
    # "mod.name" loaded by a module that imports it from .mod, or as
    # alias.name by a module that imports .mod as alias
    imported = set()
    for tree in trees.values():
        names, attrs = _loads(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is not None and local in names:
                    imported.add(f"{node.module}.{alias.name}")
                elif node.module is None:
                    imported |= {f"{alias.name}.{attr}" for base, attr in attrs if base == local}
    unused = {
        f"{mod}.{name}"
        for mod, tree in trees.items()
        for name in _exports(tree)
        if f"{mod}.{name}" not in imported and name not in _loads(tree, skip=name)[0]
    }
    assert sorted(unused) == []
