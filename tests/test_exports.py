"""Every name a module lists in ``__all__`` exists, so ``from <module> import *`` works."""

import importlib
import pkgutil

import pytest

import triangulab

MODULES = ["triangulab"] + [f"triangulab.{m.name}" for m in pkgutil.iter_modules(triangulab.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []
