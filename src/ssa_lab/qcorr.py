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
from .qmat import (
    EIG_CLIP,
    DensityMatrix,
    PureStateVector,
    _as_array,
    _as_int,
    _require_arity,
    partial_trace,
)

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
        for name, low in (("restarts", 1), ("max_evals", 1), ("seed", 0)):
            value = _as_int(getattr(self, name), name, low, ConfigError)
            object.__setattr__(self, name, value)


LBFGS_MEMORY = 10  # curvature pairs kept, the common L-BFGS default
_GRAD_TOL = 1e-8  # largest gradient component that ends a run, converged
_VALUE_TOL = 1e-10  # relative decrease of a step that ends a run, converged
_ARMIJO = 1e-3  # sufficient-decrease constant of the line search
_CURVATURE = 0.9  # weak-Wolfe curvature constant
_LINE_SEARCH_EVALS = 20
_EPS = float(np.finfo(float).eps)


def _multistart_minimize(objective, n: int, config: OptimizerConfig, starts=None):
    """Seeded multi-start L-BFGS, all restarts in lockstep.

    ``objective`` maps a (k, n) stack of points to their values (k,) and
    gradients (k, n).  The runs start from the rows of ``starts`` when it
    is given; otherwise ``config.restarts`` runs start, run 0 from the
    origin and the rest from uniform draws in [0, pi) on the exp(iH)
    charts, drawn in run order.  Each run is an ``_lbfgs`` coroutine; every
    round stacks the pending points of the runs still going, makes one
    objective call and sends row i back to its run, so each run takes the
    same path it would take alone.  Ties go to the earlier run, so a fixed
    seed fixes the outcome.  Returns (value, point, converged, nfev):
    ``converged`` is the flag of the run whose point is returned, ``nfev``
    the objective evaluations (rows) over all runs.
    """
    if starts is None:
        rng = np.random.default_rng(config.seed)
        starts = [
            np.zeros(n) if restart == 0 else rng.uniform(0.0, np.pi, n)
            for restart in range(config.restarts)
        ]
    runs = [_lbfgs(x, config) for x in starts]
    pending = {restart: next(run) for restart, run in enumerate(runs)}
    results = [None] * len(runs)
    while pending:
        active = list(pending)
        values, grads = objective(np.stack([pending[r] for r in active]))
        for restart, value, grad in zip(active, values.tolist(), grads):
            try:
                pending[restart] = runs[restart].send((value, grad))
            except StopIteration as stop:
                del pending[restart]
                results[restart] = stop.value
    best = (math.inf, np.zeros(n), False)
    nfev = 0
    for value, x, converged, evals in results:
        nfev += evals
        if value < best[0]:
            best = (value, x, converged)
    return (*best, nfev)


def _lbfgs(x: np.ndarray, config: OptimizerConfig):
    """One L-BFGS run from x, as a coroutine: it yields each point to
    evaluate, is sent back (value, gradient) and returns (value, point,
    converged, nfev).

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
    value, grad = yield x
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
        step, evals = yield from _wolfe_step(x, value, grad, direction, first, budget)
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


def _wolfe_step(x, value, grad, direction, step, budget):
    """Weak-Wolfe line search along a descent direction, as a coroutine
    like ``_lbfgs``.

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
        f, g = yield point
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
        v = _as_array(self.vectors, "basis", complex)
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
    """Chart size: two real parameters per index pair (i < j)."""
    return dim * (dim - 1)


def givens_unitary(dim: int, params: np.ndarray) -> np.ndarray:
    """Product of two-level Givens rotations with phases, for building a
    basis from angles (``discord`` searches ``_basis_chart`` instead).

    The d(d-1)/2 index pairs (i < j) are visited in row order, consuming a
    (theta, phi) pair each; rotation [[cos theta, -e^{i phi} sin theta],
    [e^{-i phi} sin theta, cos theta]] on rows i and j multiplies the
    product so far on the left.  For a qubit this is the Bloch-sphere chart.
    """
    params = _as_array(params, "angles", float).reshape(-1)
    if params.shape[0] != n_basis_params(dim):
        raise ConfigError(
            f"expected {n_basis_params(dim)} parameters for dim {dim}, got {params.shape[0]}"
        )
    theta, phi = params[0::2], params[1::2]
    trig = np.cos(theta).tolist(), np.sin(theta).tolist(), np.exp(1j * phi).tolist()
    pairs = ((i, j) for i in range(dim) for j in range(i + 1, dim))
    u = np.eye(dim, dtype=complex)
    for (i, j), c, s, e in zip(pairs, *trig):
        rows = slice(i, j + 1, j - i)  # rows i and j
        u[rows] = np.array([[c, -e * s], [e.conjugate() * s, c]]) @ u[rows]
    return u


def _hermitian_from_params(dim: int, params: np.ndarray) -> np.ndarray:
    """Diagonal first, then (re, im) of each pair (i < j) in row order; a
    (k, dim^2) stack of parameters gives a (k, dim, dim) stack."""
    re, im = params[..., dim::2], params[..., dim + 1::2]
    h = np.zeros(params.shape[:-1] + (dim * dim,), dtype=complex)
    h[..., _hermitian_layout(dim)] = np.concatenate(
        (params[..., :dim], re + 1j * im, re - 1j * im), axis=-1
    )
    return h.reshape(params.shape[:-1] + (dim, dim))


@lru_cache(maxsize=None)
def _hermitian_layout(dim: int) -> np.ndarray:
    """Flat positions of the diagonal, then of (i, j) and of (j, i) per pair."""
    i, j = np.triu_indices(dim, 1)
    diag = np.arange(dim)
    layout = np.concatenate((diag * dim + diag, i * dim + j, j * dim + i))
    layout.setflags(write=False)
    return layout


def _exp_chart(m: int, r: int, params: np.ndarray):
    """First r columns of exp(iH) = V e^{iW} V^dag, with W and V, for one
    parameter vector or a stack of them.

    The eigenvectors from eigh are orthonormal to machine precision, so the
    columns are too and need no re-orthonormalization.
    """
    w, v = np.linalg.eigh(_hermitian_from_params(m, params))
    return (v * np.exp(1j * w)[..., None, :]) @ v[..., :r, :].conj().swapaxes(-1, -2), w, v


def _exp_gradient(m: int, w: np.ndarray, v: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Chart gradients (k, m^2) of a real f of U = exp(iH)[:, :r], from
    w and V of ``_exp_chart`` and gamma = df/d(conj U), (k, m, r).

    f changes by 2 Re sum_ij conj(gamma_ij) dU_ij, and dU = V (F o V^dag dH
    V) V^dag with F_kl the divided differences (e^{i w_k} - e^{i w_l}) /
    (w_k - w_l) of exp(i x) on H's eigenvalues (Daleckii-Krein), which gives
    the gradient over H as Z = V ((V^dag gamma^dag V) o F) V^dag, read off
    at H's layout.
    """
    k, rank = gamma.shape[0], gamma.shape[-1]
    n_pairs = (m * m - m) // 2
    half = np.exp(0.5j * w)
    divided = (  # outer product first: the order fixes the rounding
        1j * (half[:, :, None] * half[:, None, :])
        * np.sinc((w[:, :, None] - w[:, None, :]) / (2.0 * np.pi))
    )
    v_h = v.conj().swapaxes(1, 2)
    z = v @ ((v_h[:, :, :rank] @ (gamma.conj().swapaxes(1, 2) @ v)) * divided) @ v_h
    z = z.reshape(k, -1)[:, _hermitian_layout(m)]
    upper, lower = z[:, m : m + n_pairs], z[:, m + n_pairs :]
    grad = np.empty((k, m * m))
    grad[:, :m] = 2.0 * z[:, :m].real
    grad[:, m::2] = 2.0 * (upper + lower).real
    grad[:, m + 1 :: 2] = 2.0 * (upper - lower).imag
    return grad


def _basis_chart(d: int, x: np.ndarray):
    """``_exp_chart`` of all d columns, H zero on the diagonal, x its pairs."""
    return _exp_chart(d, d, np.concatenate((np.zeros(x.shape[:-1] + (d,)), x), axis=-1))


def _entropy_and_gradient(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a (k, members, d, d) stack, sum_i p_i S(mats_i / p_i),
    p_i = tr mats_i, as (k,), and the gradients G_i = -log2(mats_i / p_i).

    The value changes by sum_i tr(G_i dmats_i) under Hermitian perturbations
    (the terms from dp_i cancel).  Eigenvalues of mats_i / p_i at or below
    EIG_CLIP count as zero in both, and so does a member with
    p_i <= EIG_CLIP: it is left unnormalized, so its eigenvalues stay below
    the cut too.
    """
    ev, vecs = np.linalg.eigh(mats)
    weights = ev.sum(axis=-1)
    ev = ev / np.where(weights > EIG_CLIP, weights, 1.0)[..., None]
    neg_log = -np.log2(np.where(ev > EIG_CLIP, ev, 1.0))
    grads = (vecs * neg_log[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    # one (1, members) @ (members, 1) product per row sums in the order of
    # a 1-D dot product; a plain sum of the products would round differently
    values = weights[..., None, :] @ entropy_of_spectrum(ev)[..., :, None]
    return values[..., 0, 0], grads


def _cc_evaluator(rho_ab: DensityMatrix, measured: int):
    """S of the unmeasured side, and a closure giving, for a (k, d, d) stack
    of bases (as columns), that side's entropy averaged over the outcomes
    (k,) and its gradient d/d(conj basis).  The classical correlation is
    their difference."""
    d_a, d_b = rho_ab.dims
    r4 = rho_ab.data.reshape(d_a, d_b, d_a, d_b)
    s_other = von_neumann_entropy(partial_trace(rho_ab, {1 - measured}))
    if measured == 1:
        forward, backward = "xji,ajbk,xki->xiab", "xiba,xji,ajbk->xki"
    else:
        forward, backward = "xai,ajbk,xbi->xijk", "xikj,xai,ajbk->xbi"

    def evaluate(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        bras = vectors.conj()
        conds = np.einsum(forward, bras, r4, vectors)
        value, grads = _entropy_and_gradient(conds)
        return value, np.einsum(backward, grads, bras, r4).conj()

    return s_other, evaluate


def _basis_objective(d: int, evaluate):
    """An evaluator from ``_cc_evaluator`` over the basis chart of a
    d-dimensional measured side, as (values, gradients) of a (k, d(d-1))
    stack: the convex roof's gradient with the diagonal of H left out."""

    def objective(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u, w, v = _basis_chart(d, x)
        value, gamma = evaluate(u)
        return value, _exp_gradient(d, w, v, gamma)[:, d:]

    return objective


# The fixed Bloch grid scored on a qubit measured side: theta at the centres
# of GRID_THETA equal steps over (0, pi/4), phi at GRID_PHI equal steps over
# [0, 2 pi), cell (theta, phi) at the chart point theta (-sin phi, cos phi),
# the Givens rotation (theta, phi).  theta is half the polar angle, so this
# is the hemisphere: n and -n give the same basis.
GRID_THETA = 8
GRID_PHI = 16


def _qubit_grid() -> tuple[np.ndarray, np.ndarray]:
    """The origin, then the GRID_THETA x GRID_PHI cells in row order, as
    (1 + GRID_THETA * GRID_PHI, 2) chart points, and their bases."""
    theta = (np.arange(GRID_THETA) + 0.5) * (0.25 * np.pi / GRID_THETA)
    phi = np.arange(GRID_PHI) * (2.0 * np.pi / GRID_PHI)
    t, p = np.meshgrid(theta, phi, indexing="ij")
    cells = np.stack((-t * np.sin(p), t * np.cos(p)), axis=-1).reshape(-1, 2)
    grid = np.concatenate((np.zeros((1, 2)), cells))
    bases = _basis_chart(2, grid)[0]
    grid.setflags(write=False)
    bases.setflags(write=False)
    return grid, bases


_QUBIT_GRID, _QUBIT_BASES = _qubit_grid()


def _grid_starts(values: np.ndarray, limit: int) -> np.ndarray:
    """Rows of ``_QUBIT_GRID`` to polish, given its values: the points no
    worse than their neighbours, best first, ties in grid order, at most
    ``limit``.

    A cell's neighbours are the cells one step away in theta and phi, with
    theta clamped at its edges and phi periodic; the origin's are the
    first theta row, the cells around the pole.  The best point is always
    among them.
    """
    origin, cells = values[0], values[1:].reshape(GRID_THETA, GRID_PHI)
    rows = np.pad(cells, ((1, 1), (0, 0)), mode="edge")
    minima = (
        (cells <= rows[:-2])
        & (cells <= rows[2:])
        & (cells <= np.roll(cells, 1, axis=1))
        & (cells <= np.roll(cells, -1, axis=1))
    )
    candidates = np.flatnonzero(np.concatenate(([origin <= cells[0].min()], minima.ravel())))
    best_first = candidates[np.argsort(values[candidates], kind="stable")]
    return _QUBIT_GRID[best_first[:limit]]


def classical_correlation_at(
    rho_ab: DensityMatrix, basis: MeasurementBasis, measured: int
) -> float:
    """Entropy reduction of the unmeasured side under one projective basis."""
    _require_arity(rho_ab.dims, 2, "classical_correlation_at")
    measured = _as_int(measured, "measured", 0)
    if measured > 1:
        raise DimensionError(f"measured must be 0 or 1, got {measured}")
    if basis.dim != rho_ab.dims[measured]:
        raise DimensionError(
            f"basis dimension {basis.dim} does not match measured subsystem "
            f"dimension {rho_ab.dims[measured]}"
        )
    s_other, evaluate = _cc_evaluator(rho_ab, measured)
    return s_other - float(evaluate(basis.vectors[None])[0][0])


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
    gradient over the convex roof's chart U = exp(iH), here with H zero on
    the diagonal (``_basis_chart``).  Results merge by best value with ties
    going to the earlier run.  ``nfev`` counts objective evaluations over
    all runs (0 when the measured side is one-dimensional).

    On a measured side of dimension 3 or more, ``config.restarts`` runs
    start, run 0 from the computational basis and the rest from seeded
    uniform draws, so a fixed seed fixes the outcome; ``restarts_used`` is
    ``config.restarts``.

    On a qubit side, the computational basis and the GRID_THETA x GRID_PHI
    Bloch grid are scored in one call on their prebuilt bases, and runs
    start from the grid's local minima (``_grid_starts``), best first.
    There ``config.restarts`` caps the number of runs and ``restarts_used``
    is the number made, between 1 and that cap; ``nfev`` counts the grid
    points plus every run's evaluations; ``config.max_evals`` caps each
    run, not the grid; and ``config.seed`` is unused.
    """
    _require_arity(rho_ab.dims, 2, "discord")
    measured = _as_int(measured, "measured", 0)
    if measured > 1:
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
    objective = _basis_objective(d, evaluate)
    starts, grid_evals = None, 0
    if d == 2:
        starts = _grid_starts(evaluate(_QUBIT_BASES)[0], config.restarts)
        grid_evals = len(_QUBIT_GRID)
    best_val, best_x, converged, nfev = _multistart_minimize(
        objective, n, config, starts=starts
    )
    j_best = s_other - best_val
    return DiscordResult(
        discord=mi - j_best,
        classical_correlation=j_best,
        optimal_basis=MeasurementBasis(_basis_chart(d, best_x)[0]),
        restarts_used=config.restarts if starts is None else len(starts),
        converged=converged,
        nfev=grid_evals + nfev,
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


def _average_entanglement(members: np.ndarray):
    """sum_i E(members_i) over unnormalized pure states, per row of a
    (k, m, d_a, d_b) stack, with the gradients G_i = -log2 of each
    normalized A-marginal."""
    return _entropy_and_gradient(np.einsum("xiab,xicb->xiac", members, members.conj()))


def _roof_objective(factors: np.ndarray, m: int):
    """Average entanglement of the m-member decomposition exp(iH)[:, :r]
    applied to the r factors (r, d_a, d_b), over the chart of H, as
    (values, gradients) of a (k, m^2) stack.

    Member i is m_i = sum_j U_ij R_j, so with Y_i = G_i m_i the value
    changes by 2 Re sum_ij conj(gamma_ij) dU_ij, gamma_ij = <R_j, Y_i>,
    which ``_exp_gradient`` carries over to H.
    """
    rank, d_a, d_b = factors.shape
    flat = factors.reshape(rank, d_a * d_b)

    def objective(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k = x.shape[0]
        iso, w, v = _exp_chart(m, rank, x)
        members = (iso @ flat).reshape(k, m, d_a, d_b)
        value, grads = _average_entanglement(members)
        gamma = (grads @ members).reshape(k, m, -1) @ flat.conj().T
        return value, _exp_gradient(m, w, v, gamma)

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
        return float(_average_entanglement(factors[None])[0][0])
    return _multistart_minimize(_roof_objective(factors, m), m * m, config)[0]


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
    measured = _as_int(measured, "measured", 1)
    if measured > 2:
        raise DimensionError(f"measured must be subsystem 1 or 2, got {measured}")
    complement = 3 - measured
    rho_ax = partial_trace(psi, {0, measured})
    rho_ay = partial_trace(psi, {0, complement})
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
    if rho_abc.dims[:2] != (2, 2):
        raise CapabilityError(
            f"kw_gap needs two-dimensional A and B (exact closed-form EOF), got {rho_abc.dims}"
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
    rho_ab = partial_trace(psi, {0, 1})
    rho_ac = partial_trace(psi, {0, 2})
    lhs = eof_two_qubit(rho_ab) + eof_two_qubit(rho_ac)
    rhs = (
        discord(rho_ab, measured=1, config=config).discord
        + discord(rho_ac, measured=1, config=config).discord
    )
    return lhs, rhs
