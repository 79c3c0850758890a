"""Entropic functionals: von Neumann entropy, mutual information, conditional
entropy, both forms of the strong-subadditivity gap, and the gap's concavity
under mixing.

Everything is in bits (base-2 logarithms), so the tripartite gap of a state
with a maximally mixed, factorized qubit on the first slot reads exactly 2.0.
Every entropy, of a whole state or a marginal, of a sweep's stack of roots
or of ``qcorr``'s purification rows, is read by ``_entropies``: off the
state's root when it holds one, from its Gram on the narrower side, else
from the marginal traced out of its matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionError, ValidationError
from .qmat import (
    EIG_CLIP,
    NEGATIVITY_BOUND,
    DensityMatrix,
    _as_array,
    _as_int,
    _pure_root,
    _require_arity,
    trace_out,
)


def entropy_of_spectrum(eigenvalues: np.ndarray) -> np.ndarray:
    """-sum(l * log2 l) over the last axis of a stack of spectra.

    Eigenvalues at or below EIG_CLIP, and at or above 1 (a pure state's
    eigenvalue can round to 1 + eps), are replaced by 1, whose term is
    exactly zero, so no term is negative.  The sum starts from +0.0, so a
    pure spectrum gives +0.0.
    """
    w = np.where((eigenvalues > EIG_CLIP) & (eigenvalues < 1.0), eigenvalues, 1.0)
    return (w * -np.log2(w)).sum(axis=-1)


def binary_entropy(p: float) -> float:
    """Shannon entropy of (p, 1-p) in bits."""
    return float(entropy_of_spectrum(np.array([p, 1.0 - p])))


def _spectrum(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian parts of a (..., d, d) stack of states."""
    if not np.isfinite(mats).all():
        raise ValidationError("finiteness: state has NaN or Inf entries")
    w = np.linalg.eigvalsh((mats + np.swapaxes(mats.conj(), -1, -2)) / 2.0)
    if w.min() < -NEGATIVITY_BOUND:
        raise ValidationError(
            f"positivity: smallest eigenvalue {w.min():.3e} is too negative"
        )
    return w


def _gram_spectrum(g: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Gram of a (..., k, t) stack of roots on its
    narrower side: G G^dag when k <= t, else G^dag G, which has the same
    nonzero spectrum."""
    h = g.conj().swapaxes(-1, -2)
    return np.linalg.eigvalsh(g @ h if g.shape[-2] <= g.shape[-1] else h @ g)


def _entropies(dims: tuple[int, ...], legs: Iterable, data=None, root=None) -> np.ndarray:
    """S of the marginal onto each leg group in ``legs`` of a state on
    ``dims``, along the first axis.  Given a ``root``, a (..., side, r) stack
    of roots G of states G G^dag (a pure state's amplitudes are a root of
    one column), each is read from the Gram of G arranged kept x (traced,
    column) by ``qmat._pure_root``, on its narrower side; else each
    marginal is traced from ``data``, a (..., side, side) stack, in one
    pass (``trace_out``, as ``partial_trace`` traces it) and goes through
    ``_spectrum``."""
    if root is not None:
        lead, full = root.shape[:-2], dims + root.shape[-1:]
        spectra = (_gram_spectrum(_pure_root(root, full, keep, lead)) for keep in legs)
    else:
        spectra = (_spectrum(trace_out(data, dims, keep)) for keep in legs)
    return np.array([entropy_of_spectrum(w) for w in spectra])


def _state_entropies(rho: DensityMatrix, legs: Iterable) -> list[float]:
    """``_entropies`` of a state, read off its root when it holds one."""
    return _entropies(rho.dims, legs, rho._data, rho._root).tolist()


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy in bits, from the eigenvalues of the state or, for a state that
    holds a root G (``qmat._from_root``), from those of G's Gram."""
    return _state_entropies(rho, [range(len(rho.dims))])[0]


def mutual_information(rho_ab: DensityMatrix) -> float:
    """S(A) + S(B) - S(AB); zero exactly when the state is a product."""
    _require_arity(rho_ab.dims, 2, "mutual_information")
    s_a, s_b, s_ab = _state_entropies(rho_ab, ((0,), (1,), (0, 1)))
    return s_a + s_b - s_ab


def conditional_entropy(rho_ab: DensityMatrix, conditioned_on: int) -> float:
    """S(AB) - S(conditioning side); can be negative for entangled states."""
    _require_arity(rho_ab.dims, 2, "conditional_entropy")
    conditioned_on = _as_int(conditioned_on, "conditioned_on", 0)
    if conditioned_on > 1:
        raise DimensionError(f"conditioned_on must be 0 or 1, got {conditioned_on}")
    s_ab, s_cond = _state_entropies(rho_ab, ((0, 1), (conditioned_on,)))
    return s_ab - s_cond


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


# The marginals AB, AC, B and C of the tripartite gap, in its term order.
_GAP_LEGS = ((0, 1), (0, 2), (1,), (2,))


def t_gap(rho_abc: DensityMatrix) -> TGapReport:
    """Gap S(AB) + S(AC) - S(B) - S(C) of a tripartite state, in bits."""
    _require_arity(rho_abc.dims, 3, "t_gap")
    s_ab, s_ac, s_b, s_c = _state_entropies(rho_abc, _GAP_LEGS)
    return TGapReport(s_ab + s_ac - s_b - s_c, s_ab, s_ac, s_b, s_c)


def ssa_gap_form1(rho_abc: DensityMatrix) -> float:
    """Gap S(AC) + S(BC) - S(ABC) - S(C) of the global form of the inequality."""
    _require_arity(rho_abc.dims, 3, "ssa_gap_form1")
    s_ac, s_bc, s_abc, s_c = _state_entropies(rho_abc, ((0, 2), (1, 2), (0, 1, 2), (2,)))
    return s_ac + s_bc - s_abc - s_c


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
    rhs = float(sum(p * t_gap(m).t_a for p, m in zip(ensemble.weights, ensemble.members)))
    return lhs, rhs
