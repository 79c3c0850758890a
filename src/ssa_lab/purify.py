"""Canonical purification and the B -> BE, C -> CE extension transforms.

The canonical purification is fixed as |psi> = sum_j sqrt(l_j) |v_j>|j_E>
over the eigenpairs with l_j > EIG_CLIP, eigenvalues descending with the
eigensolver's deterministic tie-break.  Purifications are unique only up to
an ancilla unitary, so pinning this form gives tests a reproducible object.
The ancilla dimension equals the numerical rank, which keeps the extended
BE / CE spaces as small as the discord optimizer needs them to be.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .qmat import EIG_CLIP, DensityMatrix, PureStateVector, eig_hermitian


@dataclass(frozen=True)
class PurificationResult:
    """Pure state on dims + (d_e,) whose ancilla trace returns the input."""

    psi: PureStateVector
    d_e: int


def purify(rho: DensityMatrix) -> PurificationResult:
    """Canonical purification of a mixed state."""
    dec = eig_hermitian(rho.data)
    keep = dec.eigenvalues > EIG_CLIP
    lam = dec.eigenvalues[keep]
    vecs = dec.eigenvectors[:, keep]
    d_e = int(lam.shape[0])
    # amps[(i, j)] = sqrt(lam_j) * v_j[i]  with the ancilla index fastest
    amps = (vecs * np.sqrt(lam)).reshape(-1)
    psi = PureStateVector(rho.dims + (d_e,), amps)
    return PurificationResult(psi=psi, d_e=d_e)


@dataclass(frozen=True)
class ExtensionPair:
    """Reduced states on (A, BE) and (A, CE) of the canonical purification."""

    rho_a_btilde: DensityMatrix
    rho_a_ctilde: DensityMatrix


def extend(rho_abc: DensityMatrix) -> ExtensionPair:
    """Purify a tripartite state and regroup into the two extended bipartitions."""
    if len(rho_abc.dims) != 3:
        raise DimensionError(
            f"extend needs a tripartite state, got dims {rho_abc.dims}"
        )
    result = purify(rho_abc)
    d_a, d_b, d_c = rho_abc.dims
    d_e = result.d_e
    t = result.psi.amps.reshape(d_a, d_b, d_c, d_e)
    # trace out C: legs (a, b, e) x (a', b', e'), B slower than E inside BE
    abe = np.einsum("abce,xycf->abexyf", t, t.conj())
    rho_a_btilde = DensityMatrix(
        (d_a, d_b * d_e), abe.reshape(d_a * d_b * d_e, d_a * d_b * d_e)
    )
    ace = np.einsum("abce,xbyf->acexyf", t, t.conj())
    rho_a_ctilde = DensityMatrix(
        (d_a, d_c * d_e), ace.reshape(d_a * d_c * d_e, d_a * d_c * d_e)
    )
    return ExtensionPair(rho_a_btilde=rho_a_btilde, rho_a_ctilde=rho_a_ctilde)
