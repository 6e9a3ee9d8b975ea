"""Every exported name resolves: each ``qtsl.*`` module's ``__all__``,
every name in the package's lazy name table, each in the module the table
names, and every function the bench tracer wraps.  Catches exports left
behind, and tracer targets lost, when code is deleted.  Layering guards
keep the threat model in ``games`` and a token's lifecycle in ``ot1_sign``
and the two revokers."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

INIT = Path(importlib.util.find_spec("qtsl").origin)
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
MODULES = sorted(f"qtsl.{p.stem}" for p in INIT.parent.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_package_imports_resolve():
    import qtsl

    table = qtsl._EXPORTS
    assert table and sorted(qtsl.__all__) == sorted(table)
    missing = [
        f"qtsl.{mod}.{attr}"
        for attr, mod in table.items()
        if not hasattr(importlib.import_module(f"qtsl.{mod}"), attr)
    ]
    assert missing == []
    assert all(
        getattr(qtsl, attr) is getattr(sys.modules[f"qtsl.{mod}"], attr)
        for attr, mod in table.items()
    )


def test_package_namespace():
    import qtsl

    assert set(qtsl.__all__) <= set(dir(qtsl))
    with pytest.raises(AttributeError, match="no_such_name"):
        qtsl.no_such_name
    namespace: dict = {}
    exec("from qtsl import *", namespace)
    assert set(qtsl.__all__) <= set(namespace)
    assert namespace["F2Vector"] is qtsl.f2lin.F2Vector
    # a module nothing has imported yet is imported on first use
    fresh = "import qtsl; print(qtsl.stack.ts_sign.__module__)"
    out = subprocess.run([sys.executable, "-c", fresh], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "qtsl.stack"


def test_bench_tracer_targets_resolve():
    """``bench/tracing.py`` wraps each ``(module, function)`` it lists, and
    the oracle's ``query`` and ``_charge``, by name."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"qtsl.{mod}.{fn}"
        for mod, fn in tracing.REPORTED + tracing.LAYER_ONLY
        if not callable(getattr(importlib.import_module(f"qtsl.{mod}"), fn, None))
    ]
    assert missing == []
    from qtsl.ot1 import MembershipOracle

    assert callable(MembershipOracle.query) and callable(MembershipOracle._charge)


def _imported_modules(tree: ast.AST) -> set[str]:
    """The ``qtsl`` submodules a module imports, by stem."""
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):  # relative imports are all within qtsl
            base = ".".join(filter(None, ["qtsl" if node.level else "", node.module]))
            dotted += [f"{base}.{a.name}" for a in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("qtsl.")}


def test_games_alone_owns_the_threat_model():
    """Only ``games`` and ``cli`` import ``games``, and only ``games``
    defines or raises ``CapabilityViolation``: no scheme module decides
    what a strategy may touch."""
    importers, raisers = set(), set()
    for path in sorted(INIT.parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if "games" in _imported_modules(tree):
            importers.add(path.stem)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "CapabilityViolation":
                raisers.add(path.stem)
            elif isinstance(node, ast.Raise) and any(
                getattr(sub, "id", getattr(sub, "attr", None)) == "CapabilityViolation"
                for sub in ast.walk(node)
            ):
                raisers.add(path.stem)
    assert importers <= {"games", "cli"} and "cli" in importers
    assert raisers == {"games"}


def _lifecycle_writers(tree: ast.AST, scope: str = "") -> set[str]:
    """The functions (by qualified name) that assign an attribute named
    ``lifecycle``."""
    writers = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            writers |= _lifecycle_writers(node, f"{scope}{node.name}.")
            continue
        for sub in ast.walk(node):
            targets = getattr(sub, "targets", None) or [getattr(sub, "target", None)]
            if any(isinstance(t, ast.Attribute) and t.attr == "lifecycle" for t in targets):
                writers.add(scope.rstrip("."))
    return writers


def test_only_signing_and_revocation_write_a_lifecycle():
    """A token is spent by ``ot1_sign`` alone; only a revoker taking a
    register back clears the flag."""
    writers = set()
    for path in sorted(INIT.parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        writers |= {f"{path.stem}.{name}" for name in _lifecycle_writers(tree)}
    assert writers == {
        "ot1.Ot1Token.__init__",
        "ot1.ot1_sign",
        "ot1.ot1_revoke",
        "stack.revoke",
    }
