"""Toolkit for the saturation gap of strong subadditivity.

Computes the entropic gap of tripartite quantum states, relates it to
bipartite quantum correlations (entanglement of formation, quantum discord)
through purification transforms, builds and certifies the family of states
that saturate the inequality, and exposes everything through a CLI.
"""

import importlib.util
import sys
import types

from .errors import (
    CapabilityError,
    ConfigError,
    DimensionError,
    ParseError,
    SsaLabError,
    ValidationError,
)
from .qmat import (
    DensityMatrix,
    PureStateVector,
    load_density,
    load_state,
    partial_trace,
    permute_subsystems,
    random_density,
    random_pure,
    save_state,
    tensor_density,
    validate_density,
)
from .entropy import (
    Ensemble,
    TGapReport,
    binary_entropy,
    concavity_check,
    conditional_entropy,
    mutual_information,
    ssa_gap_form1,
    t_gap,
    von_neumann_entropy,
)
from .purify import ExtensionPair, PurificationResult, extend, purify
from .optimize import OptimizerConfig


def _register_lazily(name: str) -> types.ModuleType:
    """The submodule ``name``, put in sys.modules (where the benchmark's
    tracer looks each layer up) with its code run at its first attribute
    access (importlib.util.LazyLoader)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# qcorr, structure and twoblock load at the first use of one of their names
# (PEP 562), so a caller that needs none of them, such as most CLI
# subcommands, does not pay for their import.  purify stays eager: a
# submodule imported for the first time is bound on the package under its
# name, which would shadow the function purify.
_LAZY = {
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
qcorr, structure, twoblock = map(_register_lazily, _LAZY)
_HOME = {name: module for module, names in _LAZY.items() for name in names}
# the names imported above, then the lazy ones
__all__ = [n for n, v in globals().items() if n[0] != "_" and not isinstance(v, types.ModuleType)]
__all__ += _HOME


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


__version__ = "0.1.0"
