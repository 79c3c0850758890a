"""A two-block family of 2x4x4 states with a closed-form saturation gap.

The family mixes an A-factorized block with an AB-pure block,

    rho = p1 |psi1_A><psi1_A| (x) rho1_BC + p2 |psi2_AB><psi2_AB| (x) rho2_C,

where |psi1_A> = a1|0> + b1|1>, |psi2_AB> = a2|00> + b2|1>|phi_B> with
|phi_B> = a|1_B> + b|2_B>, rho1_BC mixes |22> and |33| with weight lambda1,
and rho2_C mixes |0> and |1> with weight lambda2.  Each block saturates the
tripartite entropy inequality on its own; the mixture's gap is controlled
entirely by the B-marginal overlap gamma = sqrt(lambda1) * b * beta2 and
admits a closed form, which makes the family the package's central
cross-oracle: the closed form and the entropic definition must agree
everywhere, and both vanish exactly on the gamma = 0 locus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, TextIO

import numpy as np

from .errors import ConfigError, ValidationError
from .entropy import _GAP_LEGS, _entropies, entropy_of_spectrum
from .qmat import DensityMatrix, _as_array, _as_int

SWEEPABLE = ("beta2", "lambda1", "b")
MAX_SWEEP_STEPS = 1024
# A sweep builds the states of CELLS cells at a time, and of at least one
# row: 512 real 32x32 states take 4 MB, so a sweep's memory stays bounded by
# max(CELLS, steps) cells, never steps^2, and a 64-step figure takes 8
# stacks in place of one per row.
CELLS = 512


@dataclass(frozen=True)
class TwoBlockParams:
    """Free parameters of the family; all real, in [0, 1].

    beta1, alpha2 and a are determined by normalization from alpha1, beta2
    and b, which rules out inconsistent parameter sets.  Sweep rows hold
    their two SWEEPABLE fields as arrays that broadcast to (rows, steps);
    the derived fields, the blocks and the closed form then come out as
    arrays of that shape.
    """

    p1: float = 0.5
    alpha1: float = 1.0 / math.sqrt(2.0)
    beta2: float = 0.5
    b: float = 1.0 / math.sqrt(2.0)
    lambda1: float = 0.5
    lambda2: float = 0.5

    def __post_init__(self) -> None:
        # each field is stored as checked: a float, or a float array for sweep rows
        p1 = _as_array(self.p1, "p1", float)
        if not np.all((0.0 < p1) & (p1 < 1.0)):
            raise ValidationError(f"p1 must lie in (0, 1), got {self.p1}")
        object.__setattr__(self, "p1", float(p1) if p1.ndim == 0 else p1)
        for name in ("alpha1", "beta2", "b", "lambda1", "lambda2"):
            value = _as_array(getattr(self, name), name, float)
            bad = value[~((0.0 <= value) & (value <= 1.0))]
            if bad.size:
                raise ValidationError(f"{name} must lie in [0, 1], got {bad[0]}")
            object.__setattr__(self, name, float(value) if value.ndim == 0 else value)

    @property
    def p2(self) -> float:
        return 1.0 - self.p1

    @property
    def beta1(self) -> float:
        return np.sqrt(np.maximum(0.0, 1.0 - self.alpha1**2))

    @property
    def alpha2(self) -> float:
        return np.sqrt(np.maximum(0.0, 1.0 - self.beta2**2))

    @property
    def a(self) -> float:
        return np.sqrt(np.maximum(0.0, 1.0 - self.b**2))

    @property
    def gamma(self) -> float:
        return np.sqrt(self.lambda1) * self.b * self.beta2


DEFAULT_PARAMS = TwoBlockParams()


def _place(*blocks) -> np.ndarray:
    """One zeroed real (..., 32, 32) stack holding the blocks w |psi><psi| (x)
    diag(d), given as (w, support, psi, d), each written straight into place:
    entry w d_k psi_i psi_j at row support[k, i] and column support[k, j]."""
    entries = [
        (s, (psi[..., None, :, None] * psi[..., None, None, :]) * d[..., :, None, None] * w)
        for w, s, psi, d in blocks
    ]
    out = np.zeros(np.broadcast_shapes(*(e.shape[:-3] for _, e in entries)) + (32, 32))
    for s, e in entries:
        out[..., s[:, :, None], s[:, None, :]] = e
    return out


def _vector(*entries) -> np.ndarray:
    """Entries stacked along a new last axis, broadcast over sweep rows."""
    return np.stack(np.broadcast_arrays(*entries), axis=-1)


def _blocks(p: TwoBlockParams) -> tuple[tuple, tuple]:
    """The unweighted blocks |psi1_A><psi1_A| (x) rho1_BC and
    |psi2_AB><psi2_AB| (x) rho2_C as (support, psi, d) terms for _place.  A
    support holds flat indices 16a + 4b + c, [k, i] for d_k and psi_i."""
    psi1_a = _vector(p.alpha1, p.beta1)  # on |0_A>, |1_A>
    psi2_ab = _vector(p.alpha2, p.beta2 * p.a, p.beta2 * p.b)  # on |00>, |11>, |12>
    rho1_diag = _vector(p.lambda1, 1.0 - p.lambda1)  # on |22>, |33>
    rho2_diag = _vector(p.lambda2, 1.0 - p.lambda2)  # on |0_C>, |1_C>
    support1 = np.array([[10, 26], [15, 31]])  # disjoint from support2
    support2 = np.array([[0, 20, 24], [1, 21, 25]])
    return (support1, psi1_a, rho1_diag), (support2, psi2_ab, rho2_diag)


def _mixture(params: TwoBlockParams) -> np.ndarray:
    """The family density matrix (a stack of them for sweep rows): p1
    block1 and p2 block2 placed into one real array.  Valid by construction:
    real amplitudes placed symmetrically, weights >= 0 summing to 1."""
    block1, block2 = _blocks(params)
    return _place((params.p1, *block1), (params.p2, *block2))


def two_block_state(params: TwoBlockParams) -> DensityMatrix:
    """The family state on dims (2, 4, 4): the real _mixture, cast to complex.
    Valid by construction, not re-checked."""
    return DensityMatrix((2, 4, 4), _mixture(params))


def gap_mu_values(params: TwoBlockParams) -> tuple[float, float, float, float]:
    """The four closed-form eigenvalues entering the gap formula.

    mu1/mu3 are the +/- quadratic roots mixing p1*lambda1 with p2, mu2/mu4
    the roots mixing p1*lambda1 with p2*beta2^2.
    """
    p1, p2 = params.p1, params.p2
    l1 = params.lambda1
    b1sq = params.beta1**2
    b2sq = params.beta2**2
    g2 = params.gamma**2
    s13 = p1 * l1 + p2
    d13 = np.sqrt((p1 * l1 - p2) ** 2 + 4.0 * p1 * p2 * b1sq * g2)
    s24 = p1 * l1 + p2 * b2sq
    d24 = np.sqrt((p1 * l1 - p2 * b2sq) ** 2 + 4.0 * p1 * p2 * g2)
    mu1 = 0.5 * (s13 + d13)
    mu3 = 0.5 * (s13 - d13)
    mu2 = 0.5 * (s24 + d24)
    mu4 = 0.5 * (s24 - d24)
    return mu1, mu2, mu3, mu4


def gap_closed_form(params: TwoBlockParams) -> float:
    """Closed-form saturation gap of the family, in bits.

    sum_j (-1)^j mu_j log2 mu_j - p2 b2^2 log2(p2 b2^2) + p2 log2 p2, that is
    H(mu1, mu3, p2 b2^2) - H(mu2, mu4, p2) with H the entropy of a spectrum.
    Vanishes exactly when gamma = sqrt(lambda1) * b * beta2 does.
    """
    mu1, mu2, mu3, mu4 = gap_mu_values(params)
    p2 = params.p2
    spectra = _vector(mu1, mu3, p2 * params.beta2**2, mu2, mu4, p2)
    entropies = entropy_of_spectrum(spectra.reshape(spectra.shape[:-1] + (2, 3)))
    return entropies[..., 0] - entropies[..., 1]


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter, at ``steps`` <= MAX_SWEEP_STEPS evenly spaced
    values over [0, 1] (every SWEEPABLE parameter lives in [0, 1])."""

    name: str
    steps: int = 64

    def __post_init__(self) -> None:
        if self.name not in SWEEPABLE:
            raise ConfigError(
                f"unknown sweep parameter {self.name!r}; choose from {SWEEPABLE}"
            )
        steps = _as_int(self.steps, "sweep steps", 2, ConfigError, MAX_SWEEP_STEPS)
        object.__setattr__(self, "steps", steps)

    def values(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.steps)


@dataclass(frozen=True)
class SweepGrid:
    """Closed-form and entropic gap values over a 2-parameter grid.

    Cells are indexed row-major: axis1 varies along rows (slow), axis2 along
    columns (fast).  Every cell carries both values; they agree to 1e-8.
    """

    axis1: SweepAxis
    axis2: SweepAxis
    fixed: TwoBlockParams
    closed_form: np.ndarray
    numeric: np.ndarray

    def rows(self) -> Iterable[tuple[float, float, float, float]]:
        for x1, closed_row, numeric_row in zip(self.axis1.values(), self.closed_form, self.numeric):
            for x2, closed, numeric in zip(self.axis2.values(), closed_row, numeric_row):
                yield float(x1), float(x2), float(closed), float(numeric)

    def write_csv(self, stream: TextIO) -> None:
        stream.write("param1,param2,t_closed,t_numeric\n")
        for x1, x2, closed, numeric in self.rows():
            stream.write(f"{x1:.17g},{x2:.17g},{closed:.17g},{numeric:.17g}\n")


FIGURE_AXES = {
    "a": (("beta2", "lambda1"), TwoBlockParams(b=1.0 / math.sqrt(2.0))),
    "b": (("beta2", "b"), TwoBlockParams(lambda1=0.5)),
}


def sweep_gap(
    axis1: SweepAxis,
    axis2: SweepAxis,
    fixed: TwoBlockParams = DEFAULT_PARAMS,
) -> SweepGrid:
    """Evaluate closed-form and entropic gaps over a 2-parameter grid.  The
    closed form takes the whole broadcast grid in one call.  The entropic
    gap takes a block of max(1, CELLS // axis2.steps) rows at a time: one
    real _mixture stack, passed unchecked to the entropy reader, which traces
    each of the four marginals out of it in one pass."""
    if axis1.name == axis2.name:
        raise ConfigError(f"sweep axes must differ, both are {axis1.name!r}")
    values1, values2 = axis1.values()[:, None], axis2.values()
    closed = gap_closed_form(replace(fixed, **{axis1.name: values1, axis2.name: values2}))
    numeric = np.zeros_like(closed)
    rows = max(1, CELLS // axis2.steps)
    for i in range(0, axis1.steps, rows):
        block = replace(fixed, **{axis1.name: values1[i : i + rows], axis2.name: values2})
        s_ab, s_ac, s_b, s_c = np.moveaxis(_entropies((2, 4, 4), _GAP_LEGS, _mixture(block)), -1, 0)
        numeric[i : i + rows] = s_ab + s_ac - s_b - s_c
    return SweepGrid(axis1, axis2, fixed, closed, numeric)


def sweep_figure(figure: str, steps: int = 64) -> SweepGrid:
    """One of the two standard sweep planes: 'a' is beta2 x lambda1 at
    b = 1/sqrt(2), 'b' is beta2 x b at lambda1 = 1/2."""
    if figure not in FIGURE_AXES:
        raise ConfigError(f"unknown sweep figure {figure!r}; choose 'a' or 'b'")
    (name1, name2), fixed = FIGURE_AXES[figure]
    return sweep_gap(
        SweepAxis(name1, steps=steps), SweepAxis(name2, steps=steps), fixed
    )
