"""Entropic functionals: von Neumann entropy, mutual information, conditional
entropy, both forms of the strong-subadditivity gap, and the gap's concavity
under mixing.

Everything is in bits (base-2 logarithms), so the tripartite gap of a state
with a maximally mixed, factorized qubit on the first slot reads exactly 2.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .qmat import (
    EIG_CLIP,
    DensityMatrix,
    _as_array,
    _as_int,
    _require_arity,
    partial_trace,
    trace_out,
)


def entropy_of_spectrum(eigenvalues: np.ndarray) -> np.ndarray:
    """-sum(l * log2 l) over the last axis of a stack of spectra.

    Eigenvalues at or below EIG_CLIP are replaced by 1, whose term is
    exactly zero.  The sum starts from +0.0, so a pure spectrum gives +0.0.
    """
    w = np.where(eigenvalues > EIG_CLIP, eigenvalues, 1.0)
    return (w * -np.log2(w)).sum(axis=-1)


def binary_entropy(p: float) -> float:
    """Shannon entropy of (p, 1-p) in bits."""
    return float(entropy_of_spectrum(np.array([p, 1.0 - p])))


def _spectrum(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian parts of a (..., d, d) stack of states."""
    if not np.isfinite(mats).all():
        raise ValidationError("finiteness: state has NaN or Inf entries")
    w = np.linalg.eigvalsh((mats + np.swapaxes(mats.conj(), -1, -2)) / 2.0)
    if w.min() < -1e-8:
        raise ValidationError(
            f"positivity: smallest eigenvalue {w.min():.3e} is too negative"
        )
    return w


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy in bits, computed from the eigenvalues of the state."""
    return float(entropy_of_spectrum(_spectrum(rho.data)))


def mutual_information(rho_ab: DensityMatrix) -> float:
    """S(A) + S(B) - S(AB); zero exactly when the state is a product."""
    _require_arity(rho_ab.dims, 2, "mutual_information")
    s_a = von_neumann_entropy(partial_trace(rho_ab, {0}))
    s_b = von_neumann_entropy(partial_trace(rho_ab, {1}))
    return s_a + s_b - von_neumann_entropy(rho_ab)


def conditional_entropy(rho_ab: DensityMatrix, conditioned_on: int) -> float:
    """S(AB) - S(conditioning side); can be negative for entangled states."""
    _require_arity(rho_ab.dims, 2, "conditional_entropy")
    conditioned_on = _as_int(conditioned_on, "conditioned_on", 0)
    if conditioned_on > 1:
        raise DimensionError(f"conditioned_on must be 0 or 1, got {conditioned_on}")
    s_cond = von_neumann_entropy(partial_trace(rho_ab, {conditioned_on}))
    return von_neumann_entropy(rho_ab) - s_cond


@dataclass(frozen=True)
class TGapReport:
    """Saturation gap of the marginal form of strong subadditivity.

    ``t_a`` = S(AB) + S(AC) - S(B) - S(C), with the four entropies kept as
    ``components``.
    """

    t_a: float
    s_ab: float
    s_ac: float
    s_b: float
    s_c: float

    @property
    def components(self) -> dict[str, float]:
        return {"s_ab": self.s_ab, "s_ac": self.s_ac, "s_b": self.s_b, "s_c": self.s_c}


def gap_entropies(data: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """S(AB), S(AC), S(B), S(C) along the last axis, for a (..., side, side)
    stack of tripartite states with subsystem dims ``dims``."""
    d_a, d_b, d_c = dims
    ab = trace_out(data, dims, (0, 1))
    ac = trace_out(data, dims, (0, 2))
    marginals = (ab, ac, trace_out(ab, (d_a, d_b), (1,)), trace_out(ac, (d_a, d_c), (1,)))
    return np.stack([entropy_of_spectrum(_spectrum(m)) for m in marginals], axis=-1)


def t_gap(rho_abc: DensityMatrix) -> TGapReport:
    """Gap S(AB) + S(AC) - S(B) - S(C) of a tripartite state, in bits."""
    _require_arity(rho_abc.dims, 3, "t_gap")
    s_ab, s_ac, s_b, s_c = gap_entropies(rho_abc.data, rho_abc.dims).tolist()
    return TGapReport(
        t_a=s_ab + s_ac - s_b - s_c,
        s_ab=s_ab,
        s_ac=s_ac,
        s_b=s_b,
        s_c=s_c,
    )


def ssa_gap_form1(rho_abc: DensityMatrix) -> float:
    """Gap S(AC) + S(BC) - S(ABC) - S(C) of the global form of the inequality."""
    _require_arity(rho_abc.dims, 3, "ssa_gap_form1")
    s_ac = von_neumann_entropy(partial_trace(rho_abc, {0, 2}))
    s_bc = von_neumann_entropy(partial_trace(rho_abc, {1, 2}))
    s_c = von_neumann_entropy(partial_trace(rho_abc, {2}))
    return s_ac + s_bc - von_neumann_entropy(rho_abc) - s_c


@dataclass(frozen=True)
class Ensemble:
    """Weighted list of states sharing one subsystem layout."""

    weights: np.ndarray
    members: tuple[DensityMatrix, ...]

    def __post_init__(self) -> None:
        weights = _as_array(self.weights, "weights", float).reshape(-1)
        members = tuple(self.members)
        if len(members) == 0:
            raise ValidationError("ensemble must have at least one member")
        if weights.shape[0] != len(members):
            raise ValidationError(
                f"{weights.shape[0]} weights for {len(members)} members"
            )
        if not weights.min() >= -1e-12:
            raise ValidationError(f"weights must be nonnegative, got {weights}")
        if not abs(weights.sum() - 1.0) <= 1e-10:
            raise ValidationError(f"weights sum to {weights.sum()!r}, expected 1")
        dims = members[0].dims
        for k, member in enumerate(members):
            if member.dims != dims:
                raise ValidationError(
                    f"member {k} has dims {member.dims}, expected {dims}"
                )
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "members", members)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.members[0].dims

    def mixture(self) -> DensityMatrix:
        data = sum(
            p * member.data for p, member in zip(self.weights, self.members)
        )
        return DensityMatrix(self.dims, data)


def concavity_check(ensemble: Ensemble) -> tuple[float, float]:
    """Gap of the mixture vs the weighted member gaps: lhs >= rhs - 1e-9.

    Equality holds when the members' B- and C-marginals are mutually
    orthogonal.
    """
    _require_arity(ensemble.dims, 3, "concavity_check")
    lhs = t_gap(ensemble.mixture()).t_a
    rhs = float(
        sum(
            p * t_gap(member).t_a
            for p, member in zip(ensemble.weights, ensemble.members)
        )
    )
    return lhs, rhs
