"""The package's surface against its callers: every name the benchmark calls
or traces exists, no module or test file keeps an import it never uses, and
every private module-level name has a use."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import ssa_lab as sl
from ssa_lab import qcorr

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src" / "ssa_lab"
TESTS = ROOT / "tests"
SRC_MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _load_tracing():
    # tracing.py imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "layer, name",
    [(layer, name) for layer, names in _load_tracing().TRACED.items() for name in names],
)
def test_traced_name_exists(layer, name):
    # the tracer rebinds getattr(ssa_lab.<layer>, name); a missing one
    # breaks every traced run
    assert hasattr(importlib.import_module(f"ssa_lab.{layer}"), name)


def _attribute_uses(path: Path) -> set[tuple[str, str]]:
    """(base, attribute) for each ``sl.<name>`` and ``qcorr.<name>`` in a file."""
    return {
        (node.value.id, node.attr)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("sl", "qcorr")
    }


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_perfbench_names_exist(path):
    homes = {"sl": sl, "qcorr": qcorr}
    missing = sorted(f"{base}.{name}" for base, name in _attribute_uses(path)
                     if not hasattr(homes[base], name))
    assert missing == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


@pytest.mark.parametrize(
    "path", SRC_MODULES + sorted(TESTS.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _private_definitions(tree: ast.Module) -> set[str]:
    """Module-level ``_name`` functions, classes and constants (no dunders)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _read_names(path: Path) -> set[str]:
    """Every name a file reads, bare or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: p.name)
def test_private_names_used(path):
    # a private name no module of the package reads is a leftover of a deletion
    used = set().union(*(_read_names(p) for p in SRC.glob("*.py")))
    defined = _private_definitions(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(defined - used) == []
