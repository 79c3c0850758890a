"""The package's surface against its callers: the public names and where
they live, every name the benchmark calls or traces exists, no module or
test file keeps an import it never uses, and every private module-level name
has a use."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import ssa_lab as sl
from ssa_lab import qcorr

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src" / "ssa_lab"
TESTS = ROOT / "tests"
SRC_MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


# The package's public names, by the module that defines them.
PUBLIC = {
    "errors": (
        "CapabilityError", "ConfigError", "DimensionError", "ParseError", "SsaLabError",
        "ValidationError",
    ),
    "qmat": (
        "DensityMatrix", "PureStateVector", "load_density", "load_state", "partial_trace",
        "permute_subsystems", "random_density", "random_pure", "save_state", "tensor_density",
        "validate_density",
    ),
    "entropy": (
        "Ensemble", "TGapReport", "binary_entropy", "concavity_check", "conditional_entropy",
        "mutual_information", "ssa_gap_form1", "t_gap", "von_neumann_entropy",
    ),
    "purify": ("ExtensionPair", "PurificationResult", "extend", "purify"),
    "optimize": ("OptimizerConfig",),
    "qcorr": (
        "DiscordResult", "KWReport", "MeasurementBasis", "TheoremOneAudit",
        "classical_correlation_at", "concurrence", "conservation_check", "discord",
        "discord_via_kw", "eof_convex_roof", "eof_two_qubit", "kw_gap", "theorem1_audit",
    ),
    "structure": (
        "Certificate", "SaturatingBlock", "SaturatingSpec", "build_saturating", "certify",
        "load_spec", "purify_saturating", "random_saturating_spec", "save_spec",
    ),
    "twoblock": (
        "DEFAULT_PARAMS", "SweepAxis", "SweepGrid", "TwoBlockParams", "gap_closed_form",
        "gap_mu_values", "sweep_figure", "sweep_gap", "two_block_state",
    ),
}


def test_all_lists_the_public_names():
    assert sorted(sl.__all__) == sorted(name for names in PUBLIC.values() for name in names)


def test_public_names_are_their_modules_objects():
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"ssa_lab.{module}")
        for name in names:
            assert getattr(sl, name) is getattr(home, name), name
    # callers that import the optimizer settings from qcorr keep working
    assert qcorr.OptimizerConfig is sl.OptimizerConfig


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from ssa_lab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(sl.__all__)


def test_purify_stays_the_function_once_its_importers_load():
    # qcorr and structure import purify; loading them must not bind the
    # submodule ssa_lab.purify over the function (a fresh interpreter, so
    # both load after the package)
    code = (
        "import ssa_lab as sl; sl.discord; sl.certify; "
        "print(sl.purify is sl.qcorr.purify is sl.structure.purify)"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "True"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sl.no_such_name
    assert not hasattr(sl, "discord_result")


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


def _attribute_uses(path: Path) -> set[tuple[str, ...]]:
    """(base, attribute, ...) for each chain ``sl.<name>.<name>...`` and
    ``qcorr.<name>...`` in a file, such as ("sl", "MeasurementBasis",
    "from_angles")."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in ("sl", "qcorr"):
            chains.add((node.id, *reversed(attrs)))
    return chains


def _resolves(home, names) -> bool:
    for name in names:
        if not hasattr(home, name):
            return False
        home = getattr(home, name)
    return True


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_perfbench_names_exist(path):
    homes = {"sl": sl, "qcorr": qcorr}
    missing = sorted(".".join(chain) for chain in _attribute_uses(path)
                     if not _resolves(homes[chain[0]], chain[1:]))
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
