"""Quantum-correlation measures and the identities tying them to the gap.

Discord is optimized over rank-1 projective measurements only, matching the
classical-correlation definition used throughout; general POVMs are out of
scope and the possible discrepancy is treated as part of the documented
error budget.  All quantities are in bits.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapabilityError, ConfigError, DimensionError, ValidationError
from .entropy import (
    binary_entropy,
    conditional_entropy,
    entropy_of_spectrum,
    mutual_information,
    t_gap,
    von_neumann_entropy,
)
from .purify import extend, purify
from .qmat import EIG_CLIP, DensityMatrix, PureStateVector, _require_arity, partial_trace

MAX_MEASURED_DIM = 8
MAX_EOF_DIM = 16


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start settings for the L-BFGS searches.

    Per restart, ``max_evals`` caps the objective evaluations (a hard cap);
    the stopping rules are fixed constants, see ``_lbfgs``.
    """

    restarts: int = 20
    max_evals: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_evals < 1:
            raise ConfigError(f"max_evals must be >= 1, got {self.max_evals}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


LBFGS_MEMORY = 10  # curvature pairs kept, the common L-BFGS default
_GRAD_TOL = 1e-8  # largest gradient component that ends a run, converged
_VALUE_TOL = 1e-10  # relative decrease of a step that ends a run, converged
_ARMIJO = 1e-3  # sufficient-decrease constant of the line search
_CURVATURE = 0.9  # weak-Wolfe curvature constant
_LINE_SEARCH_EVALS = 20
_EPS = float(np.finfo(float).eps)


def _multistart_minimize(
    objective, n: int, config: OptimizerConfig, spread: float = 2.0 * np.pi
):
    """Seeded multi-start L-BFGS on an objective returning (value, gradient).

    Restart 0 starts from the origin, the rest from uniform draws in
    [0, spread).  Ties go to the earlier restart, so a fixed seed fixes the
    outcome.  Returns (value, point, converged, nfev): ``converged`` is the
    flag of the restart whose point is returned, ``nfev`` the objective
    evaluations over all restarts.
    """
    rng = np.random.default_rng(config.seed)
    best = (math.inf, np.zeros(n), False)
    nfev = 0
    for restart in range(config.restarts):
        x0 = np.zeros(n) if restart == 0 else rng.uniform(0.0, spread, n)
        value, x, converged, evals = _lbfgs(objective, x0, config)
        nfev += evals
        if value < best[0]:
            best = (value, x, converged)
    return (*best, nfev)


def _lbfgs(objective, x: np.ndarray, config: OptimizerConfig):
    """One L-BFGS run from x; returns (value, point, converged, nfev).

    The direction is the two-loop recursion over the last LBFGS_MEMORY
    curvature pairs (s, y), scaled by s.y / y.y of the newest pair (Liu &
    Nocedal, Math. Prog. 45, 503 (1989); Nocedal & Wright, Alg. 7.4); a
    pair is kept only when s.y > 0.  The step comes from ``_wolfe_step``,
    tried first at 1/|d| while no pair is stored and at 1 after.  The run
    stops, converged, when max|g| <= _GRAD_TOL or when a step's relative
    decrease (f_k - f_k+1) / max(|f_k|, |f_k+1|, 1) is <= _VALUE_TOL, and,
    not converged, after max_evals evaluations or when the line search along
    -g fails.
    """
    value, grad = objective(x)
    nfev = 1
    pairs: deque = deque(maxlen=LBFGS_MEMORY)
    gamma = 1.0
    while not np.abs(grad).max() <= _GRAD_TOL:
        if nfev >= config.max_evals:
            return value, x, False, nfev
        direction = _two_loop(grad, pairs, gamma)
        if not grad.dot(direction) < 0.0:  # descent lost to roundoff
            pairs.clear()
            direction = -grad
        first = 1.0 if pairs else 1.0 / math.sqrt(direction.dot(direction))
        budget = min(_LINE_SEARCH_EVALS, config.max_evals - nfev)
        step, evals = _wolfe_step(objective, x, value, grad, direction, first, budget)
        nfev += evals
        if step is None:
            if not pairs:
                return value, x, False, nfev
            pairs.clear()
            continue
        x_new, value_new, grad_new = step
        s, y = x_new - x, grad_new - grad
        sy, yy = s.dot(y), y.dot(y)
        if sy > _EPS * yy:
            pairs.append((s, y, 1.0 / sy))
            gamma = sy / yy
        decrease = (value - value_new) / max(abs(value), abs(value_new), 1.0)
        x, value, grad = x_new, value_new, grad_new
        if decrease <= _VALUE_TOL:
            break
    return value, x, True, nfev


def _two_loop(grad: np.ndarray, pairs, gamma: float) -> np.ndarray:
    """-H grad for the L-BFGS inverse Hessian H of the stored pairs (s, y,
    1 / s.y), oldest first, with gamma I as the initial H."""
    q = -grad
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * s.dot(q)
        q -= alpha * y
        alphas.append(alpha)
    q *= gamma
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * y.dot(q)) * s
    return q


def _wolfe_step(objective, x, value, grad, direction, step, budget):
    """Weak-Wolfe line search along a descent direction.

    Accepts the first trial step t with f(x + t d) <= f + _ARMIJO t g.d and
    g(x + t d).d >= _CURVATURE g.d.  A step too long for the first rule
    bounds the bracket from above, one too short for the second from below;
    the next trial is the safeguarded minimizer of the cubic through both
    ends, or four times the step while there is no upper end.  Returns
    ((point, value, gradient), evaluations), falling back after ``budget``
    evaluations to the longest step that met the first rule, or to None.
    """
    slope = grad.dot(direction)
    lo, hi, accepted = (0.0, value, slope), None, None
    for evals in range(1, budget + 1):
        point = x + step * direction
        f, g = objective(point)
        trial = (step, f, g.dot(direction))
        if not f <= value + _ARMIJO * step * slope:
            hi = trial
        elif trial[2] >= _CURVATURE * slope:
            return (point, f, g), evals
        else:
            lo, accepted = trial, (point, f, g)
        step = 4.0 * step if hi is None else _cubic_step(lo, hi)
    return accepted, budget


def _cubic_step(lo, hi) -> float:
    """Minimizer of the cubic matching value and slope at both bracket ends
    (Nocedal & Wright, eq. 3.59), kept in the middle 80% of the bracket;
    the midpoint when the cubic has no minimizer there."""
    (a, fa, da), (b, fb, db) = lo, hi
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    width = b - a
    if not disc >= 0.0:
        return a + 0.5 * width
    d2 = math.copysign(math.sqrt(disc), width)
    t = b - width * (db + d2 - d1) / (db - da + 2.0 * d2)
    if not math.isfinite(t):
        return a + 0.5 * width
    return min(max(t, a + 0.1 * width), b - 0.1 * width)


@dataclass(frozen=True)
class MeasurementBasis:
    """Rank-1 projective measurement given as an orthonormal basis (columns)."""

    vectors: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DimensionError(f"basis must be a square column set, got {v.shape}")
        gram = v.conj().T @ v
        dev = float(np.max(np.abs(gram - np.eye(v.shape[0]))))
        if dev > 1e-10:
            raise ValidationError(f"orthonormality: Gram deviates from identity by {dev:.3e}")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @classmethod
    def computational(cls, dim: int) -> "MeasurementBasis":
        return cls(np.eye(dim, dtype=complex))

    @classmethod
    def from_angles(cls, dim: int, params: np.ndarray) -> "MeasurementBasis":
        return cls(givens_unitary(dim, params))


def n_basis_params(dim: int) -> int:
    """Chart size: one rotation and one phase per index pair."""
    return dim * (dim - 1)


def givens_unitary(dim: int, params: np.ndarray) -> np.ndarray:
    """Unitary from a chain of two-level Givens rotations with phases.

    The d(d-1)/2 index pairs (i < j) are visited in row order, consuming a
    (theta, phi) pair each; for a qubit this is exactly the Bloch-sphere
    chart.  Column phases are irrelevant to the measurement the columns
    define, so the chart covers all rank-1 projective bases.
    """
    return _givens_chain(dim, params)[0]


def _givens_chain(dim: int, params: np.ndarray):
    """The chart's unitary U, the stack whose entry p is the product of the
    rotations applied before pair p, and (cos theta, sin theta, e^{i phi})."""
    params = np.asarray(params, dtype=float).reshape(-1)
    if params.shape[0] != n_basis_params(dim):
        raise ConfigError(
            f"expected {n_basis_params(dim)} parameters for dim {dim}, "
            f"got {params.shape[0]}"
        )
    theta, phi = params[0::2], params[1::2]
    c, s, e = np.cos(theta), np.sin(theta), np.exp(1j * phi)
    rotations = zip(_index_pairs(dim), c.tolist(), (-e * s).tolist(), (e.conj() * s).tolist())
    eye = np.eye(dim, dtype=complex)
    prefixes = np.empty((theta.shape[0], dim, dim), dtype=complex)
    u = eye
    for p, ((i, j), cos, upper, lower) in enumerate(rotations):
        prefixes[p] = u
        g = eye.copy()
        g[i, i] = g[j, j] = cos
        g[i, j] = upper
        g[j, i] = lower
        u = g @ u
    return u, prefixes, (c, s, e)


def _givens_pullback(u: np.ndarray, prefixes: np.ndarray, trig, gamma: np.ndarray) -> np.ndarray:
    """Chart gradient of a real f of U from gamma = df/d(conj U).

    With U = L_p g_p R_p (R_p = prefixes[p]), df = 2 Re tr(C_p^dag g_p^dag dg_p)
    where C_p = R_p U^dag gamma R_p^dag, and g_p^dag dg_p lives on the
    (i, j) block: [[0, -e^{i phi}], [e^{-i phi}, 0]] per unit theta and
    -i [[s^2, e^{i phi} s c], [e^{-i phi} s c, -s^2]] per unit phi.
    """
    c, s, e = trig
    blocks = prefixes @ (u.conj().T @ gamma) @ prefixes.conj().transpose(0, 2, 1)
    b = blocks.reshape(-1)[_pair_blocks(u.shape[0])].conj()
    b_ii, b_ij, b_ji, b_jj = b
    grad = np.empty(2 * c.shape[0])
    grad[0::2] = 2.0 * (b_ji * e.conj() - b_ij * e).real
    grad[1::2] = 2.0 * (s * s * (b_ii - b_jj) + s * c * (b_ij * e + b_ji * e.conj())).imag
    return grad


@lru_cache(maxsize=None)
def _index_pairs(dim: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (i < j) in row order."""
    return tuple((i, j) for i in range(dim - 1) for j in range(i + 1, dim))


@lru_cache(maxsize=None)
def _pair_arrays(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The first and the second indices of the pairs (i < j) in row order."""
    pairs = np.array(_index_pairs(dim), dtype=np.intp).reshape(-1, 2).T.copy()
    pairs.setflags(write=False)
    return pairs[0], pairs[1]


@lru_cache(maxsize=None)
def _pair_blocks(dim: int) -> np.ndarray:
    """Flat positions in a (pairs, dim, dim) stack of entries (i, i), (i, j),
    (j, i) and (j, j) of pair p in layer p, one row each."""
    i, j = _pair_arrays(dim)
    base = np.arange(i.shape[0]) * dim * dim
    blocks = np.stack([base + a * dim + b for a, b in ((i, i), (i, j), (j, i), (j, j))])
    blocks.setflags(write=False)
    return blocks


def _entropy_and_gradient(mats: np.ndarray) -> tuple[float, np.ndarray]:
    """sum_i p_i S(mats_i / p_i), p_i = tr mats_i, and its gradients
    G_i = -log2(mats_i / p_i).

    The value changes by sum_i tr(G_i dmats_i) under Hermitian perturbations
    (the terms from dp_i cancel).  Eigenvalues of mats_i / p_i at or below
    EIG_CLIP count as zero in both, and so does a member with
    p_i <= EIG_CLIP: it is left unnormalized, so its eigenvalues stay below
    the cut too.
    """
    ev, vecs = np.linalg.eigh(mats)
    weights = ev.sum(axis=-1)
    ev = ev / np.where(weights > EIG_CLIP, weights, 1.0)[:, None]
    neg_log = -np.log2(np.where(ev > EIG_CLIP, ev, 1.0))
    grads = (vecs * neg_log[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    return float(weights @ entropy_of_spectrum(ev)), grads


def _cc_evaluator(rho_ab: DensityMatrix, measured: int):
    """S of the unmeasured side, and a closure giving, for one basis (as
    columns), that side's entropy averaged over the outcomes and its
    gradient d/d(conj basis).  The classical correlation is their difference."""
    d_a, d_b = rho_ab.dims
    r4 = rho_ab.data.reshape(d_a, d_b, d_a, d_b)
    s_other = von_neumann_entropy(partial_trace(rho_ab, {1 - measured}))
    if measured == 1:
        forward, backward = "ji,ajbk,ki->iab", "iba,ji,ajbk->ki"
    else:
        forward, backward = "ai,ajbk,bi->ijk", "ikj,ai,ajbk->bi"

    def evaluate(vectors: np.ndarray) -> tuple[float, np.ndarray]:
        bras = vectors.conj()
        conds = np.einsum(forward, bras, r4, vectors)
        value, grads = _entropy_and_gradient(conds)
        return value, np.einsum(backward, grads, bras, r4).conj()

    return s_other, evaluate


def _basis_objective(d: int, evaluate):
    """An evaluator from ``_cc_evaluator`` over the Givens chart of a
    d-dimensional measured side, as (value, gradient)."""

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        u, prefixes, trig = _givens_chain(d, x)
        value, gamma = evaluate(u)
        return value, _givens_pullback(u, prefixes, trig, gamma)

    return objective


def classical_correlation_at(
    rho_ab: DensityMatrix, basis: MeasurementBasis, measured: int
) -> float:
    """Entropy reduction of the unmeasured side under one projective basis."""
    _require_arity(rho_ab.dims, 2, "classical_correlation_at")
    if measured not in (0, 1):
        raise DimensionError(f"measured must be 0 or 1, got {measured}")
    if basis.dim != rho_ab.dims[measured]:
        raise DimensionError(
            f"basis dimension {basis.dim} does not match measured subsystem "
            f"dimension {rho_ab.dims[measured]}"
        )
    s_other, evaluate = _cc_evaluator(rho_ab, measured)
    return s_other - evaluate(basis.vectors)[0]


@dataclass(frozen=True)
class DiscordResult:
    discord: float
    classical_correlation: float
    optimal_basis: MeasurementBasis
    restarts_used: int
    converged: bool
    nfev: int


def discord(
    rho_ab: DensityMatrix,
    measured: int,
    config: OptimizerConfig = OptimizerConfig(),
) -> DiscordResult:
    """Mutual information minus the best projective classical correlation.

    Maximization runs a multi-start L-BFGS search with the analytic
    gradient over the Givens chart; restart 0 always starts from the
    computational basis, the rest from seeded uniform draws.  Results merge
    by best value with ties going to the earlier restart, so a fixed seed
    fixes the outcome.  ``nfev`` counts objective evaluations over all
    restarts (0 when the measured side is one-dimensional).
    """
    _require_arity(rho_ab.dims, 2, "discord")
    if measured not in (0, 1):
        raise DimensionError(f"measured must be 0 or 1, got {measured}")
    d = rho_ab.dims[measured]
    if d > MAX_MEASURED_DIM:
        raise CapabilityError(
            f"measured dimension {d} exceeds the supported maximum {MAX_MEASURED_DIM}"
        )
    mi = mutual_information(rho_ab)
    n = n_basis_params(d)
    if n == 0:
        basis = MeasurementBasis.computational(d)
        j_best = classical_correlation_at(rho_ab, basis, measured)
        return DiscordResult(mi - j_best, j_best, basis, 0, True, 0)
    s_other, evaluate = _cc_evaluator(rho_ab, measured)
    best_val, best_x, converged, nfev = _multistart_minimize(
        _basis_objective(d, evaluate), n, config
    )
    j_best = s_other - best_val
    return DiscordResult(
        discord=mi - j_best,
        classical_correlation=j_best,
        optimal_basis=MeasurementBasis.from_angles(d, best_x),
        restarts_used=config.restarts,
        converged=converged,
        nfev=nfev,
    )


_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SY_SY = np.kron(_SIGMA_Y, _SIGMA_Y)


def concurrence(rho_ab: DensityMatrix) -> float:
    """Two-qubit concurrence from the singular values of X^T (sy x sy) X.

    X is the root rho = X X^dag of the canonical purification.  The singular
    values are the square roots of the eigenvalues of rho (sy x sy) rho*
    (sy x sy) (Wootters, PRL 80, 2245 (1998)), found without forming that
    non-Hermitian product, whose eigenvalue roots lose half the digits.
    """
    if rho_ab.dims != (2, 2):
        raise DimensionError(f"concurrence needs dims (2, 2), got {rho_ab.dims}")
    root = purify(rho_ab).psi.amps.reshape(4, -1)
    lam = np.linalg.svd(root.T @ _SY_SY @ root, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1:].sum()))


def eof_two_qubit(rho_ab: DensityMatrix) -> float:
    """Closed-form entanglement of formation of a two-qubit state."""
    c = concurrence(rho_ab)
    return binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def _hermitian_from_params(dim: int, params: np.ndarray) -> np.ndarray:
    """Diagonal first, then (re, im) of each pair (i < j) in row order."""
    re, im = params[dim::2], params[dim + 1::2]
    h = np.zeros(dim * dim, dtype=complex)
    h[_hermitian_layout(dim)] = np.concatenate((params[:dim], re + 1j * im, re - 1j * im))
    return h.reshape(dim, dim)


@lru_cache(maxsize=None)
def _hermitian_layout(dim: int) -> np.ndarray:
    """Flat positions of the diagonal, then of (i, j) and of (j, i) per pair."""
    i, j = _pair_arrays(dim)
    diag = np.arange(dim)
    layout = np.concatenate((diag * dim + diag, i * dim + j, j * dim + i))
    layout.setflags(write=False)
    return layout


def _exp_chart(m: int, r: int, params: np.ndarray):
    """First r columns of exp(iH) = V e^{iW} V^dag, with W and V.

    The eigenvectors from eigh are orthonormal to machine precision, so the
    columns are too and need no re-orthonormalization.
    """
    w, v = np.linalg.eigh(_hermitian_from_params(m, params))
    return (v * np.exp(1j * w)) @ v[:r].conj().T, w, v


def _average_entanglement(members: np.ndarray):
    """sum_i E(members_i) over unnormalized pure states on (m, d_a, d_b),
    with the gradients G_i = -log2 of each normalized A-marginal."""
    return _entropy_and_gradient(np.einsum("iab,icb->iac", members, members.conj()))


def _roof_objective(factors: np.ndarray, m: int):
    """Average entanglement of the m-member decomposition exp(iH)[:, :r]
    applied to the r factors (r, d_a, d_b), over the chart of H, as
    (value, gradient).

    Member i is m_i = sum_j U_ij R_j, so with Y_i = G_i m_i the value
    changes by 2 Re sum_ij conj(gamma_ij) dU_ij, gamma_ij = <R_j, Y_i>.
    Then dU = V (F o V^dag dH V) V^dag with F_kl the divided differences
    (e^{i w_k} - e^{i w_l}) / (w_k - w_l) of exp(i x) on H's eigenvalues
    (Daleckii-Krein), which gives the gradient over H as Z =
    V ((V^dag gamma^dag V) o F) V^dag, read off at H's layout.
    """
    rank, d_a, d_b = factors.shape
    flat = factors.reshape(rank, d_a * d_b)
    layout = _hermitian_layout(m)
    n_pairs = (m * m - m) // 2

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        iso, w, v = _exp_chart(m, rank, x)
        members = (iso @ flat).reshape(m, d_a, d_b)
        value, grads = _average_entanglement(members)
        gamma = (grads @ members).reshape(m, -1) @ flat.conj().T
        half = np.exp(0.5j * w)
        divided = 1j * np.outer(half, half) * np.sinc((w[:, None] - w) / (2.0 * np.pi))
        z = v @ ((v[:rank].conj().T @ (gamma.conj().T @ v)) * divided) @ v.conj().T
        z = z.reshape(-1)[layout]
        upper, lower = z[m : m + n_pairs], z[m + n_pairs :]
        grad = np.empty(m * m)
        grad[:m] = 2.0 * z[:m].real
        grad[m::2] = 2.0 * (upper + lower).real
        grad[m + 1 :: 2] = 2.0 * (upper - lower).imag
        return value, grad

    return objective


def eof_convex_roof(
    rho_ab: DensityMatrix, config: OptimizerConfig = OptimizerConfig()
) -> float:
    """Upper bound on the entanglement of formation by decomposition search.

    Minimizes sum_i p_i E(psi_i) over pure-state decompositions of m = r^2
    members for a rank-r state, enough to reach the roof (Uhlmann, Open
    Syst. Inf. Dyn. 5, 209 (1998)).  Every such decomposition arises from
    an m x r isometry acting on the canonical eigen-ensemble, so the
    isometry is the search variable, charted as the leading columns of
    exp(iH) and searched by multi-start L-BFGS with the analytic gradient.
    The value is exact only at optimizer convergence and is documented as
    an upper bound.
    """
    _require_arity(rho_ab.dims, 2, "eof_convex_roof")
    d_a, d_b = rho_ab.dims
    if d_a * d_b > MAX_EOF_DIM:
        raise CapabilityError(
            f"total dimension {d_a * d_b} exceeds the supported maximum {MAX_EOF_DIM}"
        )
    canonical = purify(rho_ab)
    rank = canonical.d_e
    # factor j = sqrt(l_j) |v_j> on (A, B)
    factors = np.moveaxis(canonical.psi.amps.reshape(d_a, d_b, rank), -1, 0)
    m = rank * rank
    if rank == 1:  # a pure state is its own only decomposition
        return _average_entanglement(factors)[0]
    best, _, _, _ = _multistart_minimize(
        _roof_objective(factors, m), m * m, config, spread=np.pi
    )
    return best


def _eof_auto(rho_ab: DensityMatrix, config: OptimizerConfig) -> float:
    """The Wootters form when the state is two-qubit, else the convex roof."""
    if rho_ab.dims == (2, 2):
        return eof_two_qubit(rho_ab)
    return eof_convex_roof(rho_ab, config=config)


def discord_via_kw(psi: PureStateVector, measured: int) -> float:
    """Discord of one bipartition of a pure tripartite state, no optimization.

    For a pure global state the monogamy relation is saturated, so the
    discord toward the measured side equals the complement pair's
    entanglement of formation minus the conditional entropy.  The
    complement pair must be two-qubit so the closed form applies.
    """
    _require_arity(psi.dims, 3, "discord_via_kw")
    if measured not in (1, 2):
        raise DimensionError(f"measured must be subsystem 1 or 2, got {measured}")
    complement = 3 - measured
    rho = psi.to_density()
    rho_ax = partial_trace(rho, {0, measured})
    rho_ay = partial_trace(rho, {0, complement})
    if rho_ay.dims != (2, 2):
        raise CapabilityError(
            f"complement pair has dims {rho_ay.dims}; the closed form needs (2, 2)"
        )
    return eof_two_qubit(rho_ay) - conditional_entropy(rho_ax, 1)


@dataclass(frozen=True)
class KWReport:
    """Monogamy gap D^(C)(rho_AC) + S(A|C) - E(rho_AB); nonnegative up to
    the discord/EOF estimation budget."""

    eof_ab: float
    discord_ac: float
    cond_entropy_ac: float
    gap: float


def kw_gap(
    rho_abc: DensityMatrix, config: OptimizerConfig = OptimizerConfig()
) -> KWReport:
    """Evaluate the monogamy inequality on a tripartite state."""
    _require_arity(rho_abc.dims, 3, "kw_gap")
    d_a, d_b, d_c = rho_abc.dims
    if (d_a, d_b) != (2, 2):
        raise CapabilityError(
            f"kw_gap needs two-dimensional A and B (exact closed-form EOF), got {rho_abc.dims}"
        )
    if d_c > MAX_MEASURED_DIM:
        raise CapabilityError(
            f"C dimension {d_c} exceeds the supported maximum {MAX_MEASURED_DIM}"
        )
    rho_ab = partial_trace(rho_abc, {0, 1})
    rho_ac = partial_trace(rho_abc, {0, 2})
    eof_ab = eof_two_qubit(rho_ab)
    d_ac = discord(rho_ac, measured=1, config=config).discord
    ce_ac = conditional_entropy(rho_ac, 1)
    return KWReport(
        eof_ab=eof_ab,
        discord_ac=d_ac,
        cond_entropy_ac=ce_ac,
        gap=d_ac + ce_ac - eof_ab,
    )


@dataclass(frozen=True)
class TheoremOneAudit:
    """All eight correlation quantities entering the gap identities, the four
    assembled right-hand sides, and the entanglement increments under the
    B -> BE / C -> CE transforms."""

    t_a: float
    eof_ab: float
    eof_ac: float
    eof_ab_ext: float
    eof_ac_ext: float
    discord_b: float
    discord_c: float
    discord_b_ext: float
    discord_c_ext: float
    line1: float
    line2: float
    line3: float
    line4: float
    delta_e_b: float
    delta_e_c: float


def theorem1_audit(
    rho_abc: DensityMatrix, config: OptimizerConfig = OptimizerConfig()
) -> TheoremOneAudit:
    """Cross-check the correlation decompositions of the gap on one state.

    The envelope is d_A = 2, d_B, d_C <= 2 and rank <= 2, so that every
    entanglement value is either exact (two-qubit) or a tight convex-roof
    bound on a 2x4 state, and every discord side stays optimizable.  Rank
    is the ancilla dimension of the canonical purification, which keeps the
    eigenvalues above EIG_CLIP.  The audit passes no verdict: callers judge
    ``line4`` against ``t_a`` and the increments ``delta_e_b`` and
    ``delta_e_c`` with their own tolerance.
    """
    _require_arity(rho_abc.dims, 3, "theorem1_audit")
    d_a, d_b, d_c = rho_abc.dims
    if d_a != 2 or d_b > 2 or d_c > 2:
        raise CapabilityError(
            f"theorem1_audit envelope is d_A = 2, d_B, d_C <= 2; got {rho_abc.dims}"
        )
    ext = extend(rho_abc)
    rank = ext.rho_a_btilde.dims[1] // d_b  # BE has d_B * d_E levels
    if rank > 2:
        raise CapabilityError(
            f"theorem1_audit envelope is rank <= 2, got numerical rank {rank}"
        )
    rho_ab = partial_trace(rho_abc, {0, 1})
    rho_ac = partial_trace(rho_abc, {0, 2})
    eof_ab = _eof_auto(rho_ab, config)
    eof_ac = _eof_auto(rho_ac, config)
    eof_ab_ext = _eof_auto(ext.rho_a_btilde, config)
    eof_ac_ext = _eof_auto(ext.rho_a_ctilde, config)
    discord_b = discord(rho_ab, measured=1, config=config).discord
    discord_c = discord(rho_ac, measured=1, config=config).discord
    discord_b_ext = discord(ext.rho_a_btilde, measured=1, config=config).discord
    discord_c_ext = discord(ext.rho_a_ctilde, measured=1, config=config).discord
    t_a = t_gap(rho_abc).t_a
    line1 = (eof_ab_ext - eof_ab) + (discord_c_ext - discord_c)
    line2 = (eof_ac_ext - eof_ac) + (discord_b_ext - discord_b)
    line3 = (eof_ab_ext + eof_ac_ext) - (discord_b + discord_c)
    line4 = (discord_b_ext + discord_c_ext) - (eof_ab + eof_ac)
    delta_e_b = eof_ab_ext - eof_ab
    delta_e_c = eof_ac_ext - eof_ac
    return TheoremOneAudit(
        t_a=t_a,
        eof_ab=eof_ab,
        eof_ac=eof_ac,
        eof_ab_ext=eof_ab_ext,
        eof_ac_ext=eof_ac_ext,
        discord_b=discord_b,
        discord_c=discord_c,
        discord_b_ext=discord_b_ext,
        discord_c_ext=discord_c_ext,
        line1=line1,
        line2=line2,
        line3=line3,
        line4=line4,
        delta_e_b=delta_e_b,
        delta_e_c=delta_e_c,
    )


def conservation_check(
    psi: PureStateVector, config: OptimizerConfig = OptimizerConfig()
) -> tuple[float, float]:
    """Both sides of the correlation conservation law for a pure 3-qubit state:
    E(AB) + E(AC) on the left, D^(B)(AB) + D^(C)(AC) on the right."""
    if psi.dims != (2, 2, 2):
        raise CapabilityError(f"conservation_check needs three qubits, got {psi.dims}")
    rho = psi.to_density()
    rho_ab = partial_trace(rho, {0, 1})
    rho_ac = partial_trace(rho, {0, 2})
    lhs = eof_two_qubit(rho_ab) + eof_two_qubit(rho_ac)
    rhs = (
        discord(rho_ab, measured=1, config=config).discord
        + discord(rho_ac, measured=1, config=config).discord
    )
    return lhs, rhs
