"""Every exported name resolves: each ``qtsl.*`` module's ``__all__`` and
every name the package ``__init__`` imports.  Catches exports left behind
when code is deleted.  The package is located without importing it, so a
stale import in ``__init__`` fails a test here instead of collection."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

INIT = Path(importlib.util.find_spec("qtsl").origin)
MODULES = sorted(f"qtsl.{p.stem}" for p in INIT.parent.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_package_imports_resolve():
    imported = [
        (node.module, alias.name)
        for node in ast.parse(INIT.read_text()).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    missing = [
        f"qtsl.{mod}.{attr}"
        for mod, attr in imported
        if not hasattr(importlib.import_module(f"qtsl.{mod}"), attr)
    ]
    assert missing == []
