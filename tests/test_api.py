"""The package's surface against its callers: every name the benchmark calls
or traces exists, and no module keeps an import it never uses."""

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
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []
