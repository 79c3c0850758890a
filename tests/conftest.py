"""Shared fixtures and small state factories for the test suite."""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np
import pytest

import ssa_lab as sl


def bell_phi_plus() -> sl.PureStateVector:
    return sl.PureStateVector((2, 2), np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))


def ghz_state() -> sl.PureStateVector:
    amps = np.zeros(8)
    amps[0] = amps[7] = 1.0 / np.sqrt(2.0)
    return sl.PureStateVector((2, 2, 2), amps)


def w_state() -> sl.PureStateVector:
    amps = np.zeros(8)
    amps[1] = amps[2] = amps[4] = 1.0 / np.sqrt(3.0)
    return sl.PureStateVector((2, 2, 2), amps)


def tensor_pure(*states: sl.PureStateVector) -> sl.PureStateVector:
    """Tensor product of pure states; dims lists concatenate."""
    amps = functools.reduce(np.kron, [s.amps for s in states])
    return sl.PureStateVector(sum((s.dims for s in states), ()), amps)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random d x d unitary: QR of a complex Gaussian matrix, with
    the phases of R's diagonal moved into Q."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_two_block_params(rng: np.random.Generator) -> sl.TwoBlockParams:
    return sl.TwoBlockParams(
        p1=float(rng.uniform(0.02, 0.98)),
        alpha1=float(rng.uniform()),
        beta2=float(rng.uniform()),
        b=float(rng.uniform()),
        lambda1=float(rng.uniform()),
        lambda2=float(rng.uniform()),
    )


def family_blocks(params: sl.TwoBlockParams):
    """The two-block family written as explicit saturating blocks."""
    psi1_a = np.zeros(2)
    psi1_a[0], psi1_a[1] = params.alpha1, params.beta1
    phi_b = np.zeros(4)
    phi_b[1], phi_b[2] = params.a, params.b
    psi2_ab = params.alpha2 * np.kron([1.0, 0.0], [1.0, 0.0, 0.0, 0.0])
    psi2_ab = psi2_ab + params.beta2 * np.kron([0.0, 1.0], phi_b)
    rho1_bc = np.zeros((16, 16))
    rho1_bc[2 * 4 + 2, 2 * 4 + 2] = params.lambda1
    rho1_bc[3 * 4 + 3, 3 * 4 + 3] = 1.0 - params.lambda1
    rho2_c = np.diag([params.lambda2, 1.0 - params.lambda2, 0.0, 0.0])
    block1 = sl.SaturatingBlock(
        weight=params.p1,
        psi_ay=sl.PureStateVector((2, 1, 1), psi1_a),
        rho_z=sl.validate_density(rho1_bc, (4, 4)),
        partition=(1, 4, 1, 4),
    )
    block2 = sl.SaturatingBlock(
        weight=params.p2,
        psi_ay=sl.PureStateVector((2, 4, 1), psi2_ab),
        rho_z=sl.validate_density(rho2_c, (1, 4)),
        partition=(4, 1, 1, 4),
    )
    return block1, block2


def family_spec(params: sl.TwoBlockParams) -> sl.SaturatingSpec:
    """The family's natural two-block decomposition (overlapping B sectors)."""
    return sl.SaturatingSpec((2, 4, 4), family_blocks(params), orthogonal=False)


@dataclass(frozen=True)
class NamedState:
    """A fixture state annotated with its expected saturation gap."""

    name: str
    state: sl.DensityMatrix
    expected_gap: float


def reference_states(params: sl.TwoBlockParams = sl.DEFAULT_PARAMS) -> list[NamedState]:
    """The family's two building blocks plus the gap-maximizing state, built
    by another route than two_block_state: each block of family_blocks alone,
    as a one-block spec of weight 1, through build_saturating, and the
    maximizer as I/2 (x) rho1_BC, which attains 2*log2(d_A) = 2 bits."""
    block1, block2 = family_blocks(params)
    alone = [
        sl.build_saturating(sl.SaturatingSpec((2, 4, 4), (replace(blk, weight=1.0),)))
        for blk in (block1, block2)
    ]
    maximizer = sl.tensor_density(sl.DensityMatrix((2,), np.eye(2) / 2.0), block1.rho_z)
    return [
        NamedState("a_factorized_block", alone[0], 0.0),
        NamedState("ab_pure_block", alone[1], 0.0),
        NamedState("maximally_mixed_a", maximizer, 2.0),
    ]


def collide_embeddings(spec: sl.SaturatingSpec) -> sl.SaturatingSpec:
    """Orthogonality-violating perturbation: move every block's B-embedding
    onto the first block's range (the C side is left untouched)."""
    assert len(spec.blocks) >= 2, "need at least two blocks to collide embeddings"
    target = spec.blocks[0].embed_b
    d_b = spec.dims[1]
    moved = tuple(
        replace(b, embed_b=min(target, d_b - b.b_dim)) for b in spec.blocks
    )
    return sl.SaturatingSpec(spec.dims, moved, orthogonal=False)


def min_eig_partial_transpose(rho: sl.DensityMatrix) -> float:
    """Smallest eigenvalue of the partial transpose over the second subsystem."""
    d_a, d_b = rho.dims
    four = rho.data.reshape(d_a, d_b, d_a, d_b)
    pt = four.transpose(0, 3, 2, 1).reshape(d_a * d_b, d_a * d_b)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2.0).min())


def _grid_classical_correlation(
    rho: sl.DensityMatrix,
    theta: np.ndarray,
    phi: np.ndarray,
    s_a: float,
) -> np.ndarray:
    """Classical correlation over a (theta, phi) measurement grid on the
    second qubit, fully vectorized with closed-form 2x2 eigenvalues."""
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    b0 = np.stack([np.cos(tt / 2), np.exp(1j * pp) * np.sin(tt / 2)], axis=-1)
    b1 = np.stack([-np.sin(tt / 2), np.exp(1j * pp) * np.cos(tt / 2)], axis=-1)
    r4 = rho.data.reshape(2, 2, 2, 2)

    def avg_conditional_entropy(b):
        m = np.einsum("xyj,ajbk,xyk->xyab", b.conj(), r4, b, optimize=True)
        p = np.einsum("xyaa->xy", m).real
        det = (m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]).real
        disc = np.sqrt(np.clip(p**2 - 4 * det, 0.0, None))
        lam1 = np.clip((p + disc) / 2, 0.0, None)
        lam2 = np.clip((p - disc) / 2, 0.0, None)

        def xlog(x, total):
            frac = np.where(total > 1e-12, x / np.where(total > 0, total, 1.0), 0.0)
            return np.where(frac > 1e-12, frac * np.log2(np.where(frac > 0, frac, 1.0)), 0.0)

        ent = -(xlog(lam1, p) + xlog(lam2, p))
        return p, ent

    p0, e0 = avg_conditional_entropy(b0)
    p1, e1 = avg_conditional_entropy(b1)
    return s_a - (p0 * e0 + p1 * e1)


def grid_discord_two_qubit(rho: sl.DensityMatrix, n: int = 400) -> float:
    """Brute-force oracle: discord from an n x n Bloch-angle grid over
    projective measurements on the second qubit, with one zoom pass.

    theta in [0, pi/2] covers every basis pair once (the pair at
    (pi - theta, phi + pi) repeats the pair at (theta, phi)).  The uniform
    grid alone undershoots the optimum by O((pi/n)^2 * curvature), which at
    n = 400 can exceed 1e-5, so a second n x n grid zooms into one coarse
    cell around the incumbent; the oracle stays pure grid search.
    """
    s_a = sl.von_neumann_entropy(sl.partial_trace(rho, {0}))
    theta = np.linspace(0.0, np.pi / 2, n)
    phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    j = _grid_classical_correlation(rho, theta, phi, s_a)
    i0, j0 = np.unravel_index(int(np.argmax(j)), j.shape)
    best = float(j[i0, j0])
    dt = theta[1] - theta[0]
    dp = phi[1] - phi[0]
    theta_fine = np.linspace(theta[i0] - dt, theta[i0] + dt, n)
    phi_fine = np.linspace(phi[j0] - dp, phi[j0] + dp, n)
    j_fine = _grid_classical_correlation(rho, theta_fine, phi_fine, s_a)
    best = max(best, float(j_fine.max()))
    return sl.mutual_information(rho) - best


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240801)


@dataclass
class WorkCounts:
    """The optimizer work of one test: objective rows and objective calls
    made through ``_multistart_minimize``, and value-only scan scores."""

    rows: int = 0
    calls: int = 0
    scores: int = 0

    def __str__(self) -> str:
        return f"objective rows {self.rows}, calls {self.calls}, scores {self.scores}"


@pytest.fixture
def work(monkeypatch) -> WorkCounts:
    """Counts the optimizer work of the test that takes it.  Every objective
    ``qcorr`` hands to ``_multistart_minimize`` is wrapped to count its rows
    and calls, and ``_lattice_scores`` counts the scores it returns; the
    wrappers pass every value through unchanged.  The counts are
    deterministic, where timings on a shared host are not."""
    counts = WorkCounts()
    minimize, scores = sl.qcorr._multistart_minimize, sl.qcorr._lattice_scores

    def counting_minimize(objective, starts, config, *reach):
        def counted(x, owner):
            counts.rows += len(x)
            counts.calls += 1
            return objective(x, owner)

        return minimize(counted, starts, config, *reach)

    def counting_scores(blocks, table):
        values = scores(blocks, table)
        counts.scores += values.size
        return values

    monkeypatch.setattr(sl.qcorr, "_multistart_minimize", counting_minimize)
    monkeypatch.setattr(sl.qcorr, "_lattice_scores", counting_scores)
    return counts
