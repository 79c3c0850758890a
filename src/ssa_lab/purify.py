"""Canonical purification and the B -> BE, C -> CE extension transforms.

The canonical purification is fixed as |psi> = sum_j sqrt(l_j) |v_j>|j_E>
over the eigenpairs with l_j > EIG_CLIP, eigenvalues descending and each
|v_j> phased so that its first largest-modulus entry is real and >= 0.
Exactly equal eigenvalues keep eigh's order: no order inside a degenerate
eigenspace is canonical, and no entropy, EOF or discord depends on it.
Purifications are unique only up to an ancilla unitary, so pinning this
form gives tests a reproducible object.  The ancilla dimension equals the
numerical rank, which keeps the extended BE / CE spaces as small as the
discord optimizer needs them to be.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmat import EIG_CLIP, DensityMatrix, PureStateVector, _require_arity, trace_out_pure


@dataclass(frozen=True)
class PurificationResult:
    """Pure state on dims + (d_e,) whose ancilla trace returns the input."""

    psi: PureStateVector
    d_e: int


def purify(rho: DensityMatrix) -> PurificationResult:
    """Canonical purification of a mixed state."""
    w, v = np.linalg.eigh((rho.data + rho.data.conj().T) / 2.0)
    order = np.argsort(-w, kind="stable")
    keep = order[w[order] > EIG_CLIP]
    lam, vecs = w[keep], v[:, keep]
    d_e = int(lam.shape[0])
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(d_e)]
    vecs = vecs * (lead.conj() / np.abs(lead))
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
    _require_arity(rho_abc.dims, 3, "extend")
    result = purify(rho_abc)
    d_a, d_b, d_c = rho_abc.dims
    d_e = result.d_e
    amps, dims = result.psi.amps, result.psi.dims
    # B slower than E inside BE, C slower than E inside CE
    rho_a_btilde = DensityMatrix((d_a, d_b * d_e), trace_out_pure(amps, dims, (0, 1, 3)))
    rho_a_ctilde = DensityMatrix((d_a, d_c * d_e), trace_out_pure(amps, dims, (0, 2, 3)))
    return ExtensionPair(rho_a_btilde=rho_a_btilde, rho_a_ctilde=rho_a_ctilde)
