"""Toolkit for the saturation gap of strong subadditivity.

Computes the entropic gap of tripartite quantum states, relates it to
bipartite quantum correlations (entanglement of formation, quantum discord)
through purification transforms, builds and certifies the family of states
that saturate the inequality, and exposes everything through a CLI.
"""

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
from .qcorr import (
    DiscordResult,
    KWReport,
    MeasurementBasis,
    OptimizerConfig,
    TheoremOneAudit,
    classical_correlation_at,
    concurrence,
    conservation_check,
    discord,
    discord_via_kw,
    eof_convex_roof,
    eof_two_qubit,
    kw_gap,
    theorem1_audit,
)
from .structure import (
    Certificate,
    SaturatingBlock,
    SaturatingSpec,
    build_saturating,
    certify,
    load_spec,
    purify_saturating,
    random_saturating_spec,
    save_spec,
)
from .twoblock import (
    DEFAULT_PARAMS,
    SweepAxis,
    SweepGrid,
    TwoBlockParams,
    gap_closed_form,
    gap_mu_values,
    sweep_figure,
    sweep_gap,
    two_block_state,
)

__version__ = "0.1.0"
