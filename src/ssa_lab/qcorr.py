"""Quantum-correlation measures and the identities tying them to the gap.

Discord and the convex roof minimize one objective, the average
entanglement of the members of a decomposition (``_member_entropy``), on
rows that ``_legs`` reads from any purification |psi> of the pair AB; two
purifications differ by an isometry on the purifier, which no quantity
here sees.  The roof's members are isometries of its rows along the
purifier.  Discord's are <u_i|_B psi for a basis {u_i} of the measured
side B, whose average A entropy is S(A) minus the classical correlation
(Koashi and Winter, PRA 69, 022309 (2004)).  Both searches run on
``optimize``'s multi-start L-BFGS.  Discord is optimized over
rank-1 projective measurements only; the gap to the POVM optimum is not
yet reported (ROADMAP item 9).  All quantities are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapabilityError, ConfigError, DimensionError, ValidationError
from .entropy import _entropies, binary_entropy, entropy_of_spectrum, t_gap
from .optimize import OptimizerConfig, _multistart_minimize
from .purify import purify
from .qmat import EIG_CLIP, DensityMatrix, PureStateVector, _as_array, _as_int, _require_arity

MAX_MEASURED_DIM = 8
MAX_EOF_DIM = 16


def _restart_points(m: int, n: int, config: OptimizerConfig) -> np.ndarray:
    """The ``config.restarts`` starts of a search on the n-parameter exp(iH)
    chart of an m x m H, as rows: the origin, then seeded uniform draws in
    [-a, a)^n in run order, a = (pi/4) min(1, 2/sqrt(m)).

    The chart folds where two eigenvalues of H differ by a nonzero multiple
    of 2 pi (the divided differences of exp(i x) in ``_exp_gradient``
    vanish there).  H's spectrum spreads like a sqrt(m), so past m = 4 the
    box shrinks and every draw's spread stays below 2 pi.  The box is
    symmetric, so the pair entries of H take every sign.
    """
    rng = np.random.default_rng(config.seed)
    half = 0.25 * np.pi * min(1.0, 2.0 / math.sqrt(m))
    draws = rng.uniform(-half, half, (config.restarts - 1, n))
    return np.concatenate((np.zeros((1, n)), draws))


@dataclass(frozen=True)
class MeasurementBasis:
    """Rank-1 projective measurement given as an orthonormal basis (columns)."""

    vectors: np.ndarray

    def __post_init__(self) -> None:
        v = _as_array(self.vectors, "basis", complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DimensionError(f"basis must be a square column set, got {v.shape}")
        if not np.isfinite(v).all():
            raise ValidationError("finiteness: basis has NaN or Inf entries")
        gram = v.conj().T @ v
        dev = float(np.max(np.abs(gram - np.eye(v.shape[0]))))
        if not dev <= 1e-10:
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
    basis from angles (``discord`` searches the basis chart of ``_exp_chart``
    instead).

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


@lru_cache(maxsize=None)
def _chart_slots(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the n parameters of the exp(iH) chart sit in H, as positions in
    the (re, im) float view of H's m^2 flat entries: each parameter's slot,
    its mirror slot in the conjugate entry and the sign it takes there.

    m^2 parameters put H's diagonal first (the full chart), then (re, im)
    of entry (i, j) for each pair (i < j) in row order; the basis chart,
    n = m^2 - m, has the pairs only and H's diagonal zero.  A diagonal
    entry is its own mirror, with sign 0.  O(m^2) integers per chart size.
    """
    i, j = np.triu_indices(m, 1)
    diag = 2 * (m + 1) * np.arange(m)
    upper, lower = 2 * (i * m + j), 2 * (j * m + i)
    slot = np.concatenate((diag, np.stack((upper, upper + 1), axis=-1).ravel()))
    mirror = np.concatenate((diag, np.stack((lower, lower + 1), axis=-1).ravel()))
    sign = np.concatenate((np.zeros(m), np.tile([1.0, -1.0], i.shape[0])))
    slots = slot[m * m - n :], mirror[m * m - n :], sign[m * m - n :]
    for part in slots:
        part.setflags(write=False)
    return slots


def _exp_chart(m: int, r: int, params: np.ndarray):
    """First r columns of exp(iH) = V e^{iW} V^dag, with W and V, for one
    parameter vector or a stack of them, H laid out by ``_chart_slots``:
    m^2 parameters give the full chart and m^2 - m the basis chart.

    The mirrors are written first, so a diagonal slot ends with its
    parameter.  The eigenvectors from eigh are orthonormal to machine
    precision, so the columns are too and need no re-orthonormalization.
    """
    slot, mirror, sign = _chart_slots(m, params.shape[-1])
    h = np.zeros(params.shape[:-1] + (2 * m * m,))
    h[..., mirror] = params * sign
    h[..., slot] = params
    w, v = np.linalg.eigh(h.view(complex).reshape(params.shape[:-1] + (m, m)))
    return (v * np.exp(1j * w)[..., None, :]) @ v[..., :r, :].conj().swapaxes(-1, -2), w, v


def _exp_gradient(n: int, w: np.ndarray, v: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Chart gradients (k, n) of a real f of U = exp(iH)[:, :r], from w
    and V of ``_exp_chart`` and gamma = df/d(conj U), (k, m, r), on the
    chart with n parameters.

    f changes by 2 Re sum_ij conj(gamma_ij) dU_ij, and dU = V (F o V^dag dH
    V) V^dag with F_kl the divided differences (e^{i w_k} - e^{i w_l}) /
    (w_k - w_l) of exp(i x) on H's eigenvalues (Daleckii-Krein), which gives
    the gradient over H's entries as Z = V ((V^dag gamma^dag V) o F) V^dag.
    A parameter's gradient is 2 (Z at its slot + sign * Z at its mirror),
    read in Z's (re, im) float view: 2 Re Z_ii on the diagonal, 2 Re(Z_ij +
    Z_ji) and 2 Im(Z_ij - Z_ji) for a pair.
    """
    k, m, rank = gamma.shape
    slot, mirror, sign = _chart_slots(m, n)
    half = np.exp(0.5j * w)
    divided = (  # outer product first: the order fixes the rounding
        1j * (half[:, :, None] * half[:, None, :])
        * np.sinc((w[:, :, None] - w[:, None, :]) / (2.0 * np.pi))
    )
    v_h = v.conj().swapaxes(1, 2)
    z = v @ ((v_h[:, :, :rank] @ (gamma.conj().swapaxes(1, 2) @ v)) * divided) @ v_h
    z = z.reshape(k, -1).view(float)
    # take, not z[:, slot]: a fancy-indexed column gather comes back in
    # Fortran order, and the L-BFGS dot products round by layout
    return 2.0 * (z.take(slot, axis=1) + z.take(mirror, axis=1) * sign)


def _legs(psi: PureStateVector, first: tuple[int, ...], second: tuple[int, ...]) -> np.ndarray:
    """The amplitudes of ``psi`` as a 3-D array over the legs in ``first``,
    then those in ``second``, then the rest, each group flattened in leg
    order: discord's rows (measured, other side, rest), the roof's
    (``_roof_rows``) and the Wootters root (A, partner, rest)."""
    rest = tuple(leg for leg in range(len(psi.dims)) if leg not in first + second)
    shape = [math.prod(psi.dims[leg] for leg in group) for group in (first, second, rest)]
    return psi.amps.reshape(psi.dims).transpose(first + second + rest).reshape(shape)


def _leg_entropies(rows: np.ndarray, legs) -> list[float]:
    """S of each leg group in ``legs`` of the rows of ``_legs``, read by the
    entropy reader with the rows as the root of a pure state."""
    return _entropies(rows.shape, [(leg,) for leg in legs], root=rows.reshape(-1)).tolist()


def _narrow(blocks: np.ndarray) -> np.ndarray:
    """(S, r, a, t) row blocks, the last two axes swapped when t < a: each
    member's t x t marginal then has the nonzero spectrum of the a x a one."""
    if blocks.shape[3] < blocks.shape[2]:
        return np.ascontiguousarray(blocks.swapaxes(2, 3))
    return blocks


def _roof_rows(psi: PureStateVector, purifier: tuple[int, ...]) -> np.ndarray:
    """The ``_legs`` rows (purifier, A, rest) of the pair (A, rest), cut to
    its rank when the purifier has more levels: the rows S V^dag of their
    SVD U S V^dag with S^2 > EIG_CLIP, ``purify``'s rule, so the roof's
    chart stays m = rank^2.  Rows already at the rank are kept as they are,
    so a roof on ``purify``'s rows searches its eigen-ensemble bit for bit."""
    rows = _legs(psi, purifier, (0,))
    _, s, vh = np.linalg.svd(rows.reshape(len(rows), -1), full_matrices=False)
    rank = int(np.count_nonzero(s * s > EIG_CLIP))
    if rank == len(rows):
        return rows
    return (s[:rank, None] * vh[:rank]).reshape((rank,) + rows.shape[1:])


def _member_entropy(iso: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average entanglement sum_i E(m_i) of the unnormalized pure members
    m_i = sum_j iso_ij R_j, for a (k, m, r) stack of iso and one block of r
    rows R_j per stacked point, (k, r, a, t), as (k,), and gamma =
    d/d(conj iso), (k, m, r).

    Each block is the ``_narrow`` rows of the search the point belongs
    to; t is the leg group traced out of each member.  E(m_i) = p_i
    S(rho_i / p_i), with rho_i = m_i m_i^dag the marginal on the rows'
    first factor and p_i = tr rho_i.  With G_i = -log2(rho_i / p_i) the
    value changes by sum_i tr(G_i drho_i) (the terms from dp_i cancel), so
    gamma_ij = <R_j, G_i m_i>.  Eigenvalues of rho_i / p_i at or below
    EIG_CLIP count as zero in both, and so does a member with p_i <=
    EIG_CLIP: it is left unnormalized, so its eigenvalues stay below the
    cut too.
    """
    flat = rows.reshape(rows.shape[:2] + (-1,))
    members = (iso @ flat).reshape(iso.shape[:2] + rows.shape[2:])
    ev, vecs = np.linalg.eigh(np.einsum("xiab,xicb->xiac", members, members.conj()))
    weights = ev.sum(axis=-1)
    ev = ev / np.where(weights > EIG_CLIP, weights, 1.0)[..., None]
    neg_log = -np.log2(np.where(ev > EIG_CLIP, ev, 1.0))
    grads = (vecs * neg_log[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    # one (1, m) @ (m, 1) product per row sums in the order of a 1-D dot
    # product; a plain sum of the products would round differently
    values = weights[:, None, :] @ entropy_of_spectrum(ev)[:, :, None]
    gamma = (grads @ members).reshape(iso.shape[:2] + (-1,)) @ flat.conj().swapaxes(1, 2)
    return values[:, 0, 0], gamma


def _by_shape(blocks: list[np.ndarray], search, config: OptimizerConfig) -> list:
    """``search(stacked, config)``, one result per block, on each group of
    row blocks of one shape, stacked as (S, r, a, t), with the results
    back in the order of ``blocks``.  One shape shares one chart and stacks
    without padding, so each search of a group takes, bit for bit, the
    path it takes alone (a zero-padded block would not: matmul rounds by
    width)."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, block in enumerate(blocks):
        groups.setdefault(block.shape, []).append(i)
    results = [None] * len(blocks)
    for group in groups.values():
        for i, result in zip(group, search(np.stack([blocks[i] for i in group]), config)):
            results[i] = result
    return results


def _basis_objective(blocks: np.ndarray):
    """Discord's objective over the basis chart U = exp(iH) of measured
    sides with the (S, d, a, t) ``blocks`` of rows along them, as (values,
    gradients) of a (k, d(d-1)) stack whose row i belongs to search
    owner[i]: the members are U^dag @ rows, so gamma^dag is d/d(conj U),
    and the gradient is the roof's with the diagonal of H left out."""
    d = blocks.shape[1]

    def objective(x: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u, w, v = _exp_chart(d, d, x)
        value, gamma = _member_entropy(u.conj().swapaxes(1, 2), blocks[owner])
        return value, _exp_gradient(x.shape[-1], w, v, gamma.conj().swapaxes(1, 2))

    return objective


# The bases ``_scan`` scores on a measured side of dimension d <= SCAN_MAX_DIM,
# the origin first.  A qubit side's are GRID_POINTS Fibonacci-lattice cells on
# the hemisphere (Gonzalez, Math. Geosci. 42, 49 (2010)), all of it, as n and
# -n give one basis: cell k at polar angle arccos(1 - (k + 1/2) / GRID_POINTS)
# and azimuth phi = k golden angles (2 pi / golden ratio), at the chart point
# (polar / 2)(-sin phi, cos phi), the Givens rotation (polar / 2, phi).  At 96
# cells a point's GRID_NEIGHBOURS nearest lie within 28 degrees; at 64 they
# reach 34, far enough to read two basins as one.  Sides of dimension 3 and 4
# take SCAN_POINTS draws in ``_restart_points``' box, fixed by SCAN_SEED.
SCAN_MAX_DIM = 4
GRID_POINTS = 96
SCAN_POINTS = 128
SCAN_SEED = 0
GRID_NEIGHBOURS = 8
# Every Bloch axis lies within GRID_COVER_DEG of a lattice axis (12.1 degrees
# measured), and a chart step of length s turns the axis by about 2 s, so a
# qubit polish run tries its first step at the covering radius on the chart,
# _GRID_REACH, about 0.13; a unit step, some 115 degrees, was rejected by the
# line search in every run seen.  Larger sides keep the unit step.
GRID_COVER_DEG = 15.0
_GRID_REACH = 0.5 * math.radians(GRID_COVER_DEG)
# A score table spread by at most GRID_FLAT bits is flat: the objective is
# constant over the bases (a pure pair, a product, a Werner state), the scores
# differ by rounding alone (2.0e-15 at most seen on qubit sides), and only the
# best point is polished.  Random rank >= 2 qubit sides spread by >= 0.04 bits.
GRID_FLAT = 1e-14
_SCAN_BLOCK = 4  # points per overlap block, a (4 d, P d) complex slab: 0.13 MB at d = 4


@lru_cache(maxsize=None)
def _scan(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The (P, d(d-1)) chart points scored on a measured side of dimension
    d; the entries conj(u_ji) u_ki of their bases u, as a (P d, d^2) table
    whose row d p + i holds point p's member i, columns over jk; the
    symmetric boolean neighbour matrix; and a polish run's first step.  p
    and q neighbour when either is among the other's GRID_NEIGHBOURS
    nearest by the basis distance d - sum_ik |<u_i|u'_k>|^4 (half the squared
    Frobenius distance of the bases' dephasing Choi matrices), zero exactly
    between bases that measure alike, 1 - (n.n')^2 between Bloch axes (n ~
    -n) at d = 2, so the origin's ring and the neighbours across the rim follow."""
    if d == 2:
        k = np.arange(GRID_POINTS)
        half_polar = 0.5 * np.arccos(1.0 - (k + 0.5) / GRID_POINTS)
        phi = k * (np.pi * (math.sqrt(5.0) - 1.0))  # 2 pi / golden ratio
        cells = half_polar[:, None] * np.stack((-np.sin(phi), np.cos(phi)), axis=-1)
        points, reach = np.concatenate((np.zeros((1, 2)), cells)), _GRID_REACH
    else:
        draws = OptimizerConfig(restarts=1 + SCAN_POINTS, seed=SCAN_SEED)
        points, reach = _restart_points(d, n_basis_params(d), draws), 1.0
    bases = _exp_chart(d, d, points)[0]
    table = np.einsum("pji,pki->pijk", bases.conj(), bases).reshape(-1, d * d)
    count = len(points)
    bras, kets = bases.conj().swapaxes(1, 2).reshape(-1, d), bases.swapaxes(0, 1).reshape(d, -1)
    far = np.empty((count, count))
    for top in range(0, count, _SCAN_BLOCK):  # |<u_i|u'_k>|^4 as (p, i, q, k)
        overlap = np.abs(bras[d * top : d * (top + _SCAN_BLOCK)] @ kets) ** 4
        far[top : top + _SCAN_BLOCK] = d - overlap.reshape(-1, d, count, d).sum(axis=(1, 3))
    np.fill_diagonal(far, np.inf)
    near = far <= np.sort(far, axis=1)[:, GRID_NEIGHBOURS - 1, None]
    near |= near.T
    for part in (points, table, near):
        part.setflags(write=False)
    return points, table, near, reach


def _lattice_scores(blocks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Discord's objective at every ``_scan`` point, values only, for the
    (S, d, a, t) ``blocks`` of S measured sides and the points' ``table``,
    as (S, P).  Basis u leaves member i the marginal sigma_i = sum_jk
    conj(u_ji) u_ki R_j R_k^dag, affine in the table, so one matmul of the
    table with each side's d^2 products R_j R_k^dag gives every marginal,
    and one eigvalsh their spectra, cut and normalized as in
    ``_member_entropy``.  The blocks come in ``_narrow``'s orientation, so
    the scan holds (P d, t, t) marginals when t < a, not (P d, a, a)."""
    count, d, a, _ = blocks.shape
    flat = blocks.reshape(count, d * a, -1)
    gram = (flat @ flat.conj().swapaxes(1, 2)).reshape(count, d, a, d, a)
    products = gram.transpose(0, 1, 3, 2, 4).reshape(count, d * d, a * a)
    marginals = (table @ products).reshape(count, -1, d, a, a)
    ev = np.linalg.eigvalsh(marginals)
    weights = ev.sum(axis=-1)
    ev = ev / np.where(weights > EIG_CLIP, weights, 1.0)[..., None]
    return (weights * entropy_of_spectrum(ev)).sum(axis=-1)


def _grid_starts(values: np.ndarray, neighbours: np.ndarray, limit: int) -> np.ndarray:
    """Indices of the scanned points to polish, from their values and
    ``neighbours`` matrix: those no worse than any neighbour, best first,
    ties in scan order, at most ``limit``, and only the best when the values
    spread by GRID_FLAT or less.  The best point is always among them."""
    if np.ptp(values) <= GRID_FLAT:
        limit = 1
    around = np.where(neighbours, values, np.inf)
    candidates = np.flatnonzero((values[:, None] <= around).all(axis=1))
    return candidates[np.argsort(values[candidates], kind="stable")][:limit]


def _measured_side(rho_ab: DensityMatrix, measured: int, op: str) -> int:
    """``measured`` checked as a side (0 or 1) of the bipartite ``rho_ab``."""
    _require_arity(rho_ab.dims, 2, op)
    measured = _as_int(measured, "measured", 0)
    if measured > 1:
        raise DimensionError(f"measured must be 0 or 1, got {measured}")
    return measured


def _require_measurable(d: int) -> None:
    if d > MAX_MEASURED_DIM:
        raise CapabilityError(
            f"measured dimension {d} exceeds the supported maximum {MAX_MEASURED_DIM}"
        )


def _require_pure(psi: PureStateVector, op: str) -> None:
    if not isinstance(psi, PureStateVector):
        raise ValidationError(f"{op} needs a PureStateVector, got {type(psi).__name__}")


def classical_correlation_at(
    rho_ab: DensityMatrix, basis: MeasurementBasis, measured: int
) -> float:
    """Entropy reduction of the unmeasured side under one projective basis."""
    measured = _measured_side(rho_ab, measured, "classical_correlation_at")
    if basis.dim != rho_ab.dims[measured]:
        raise DimensionError(
            f"basis dimension {basis.dim} does not match measured subsystem "
            f"dimension {rho_ab.dims[measured]}"
        )
    rows = _legs(purify(rho_ab).psi, (measured,), (1 - measured,))
    bras = basis.vectors.conj().T[None]
    return _leg_entropies(rows, (1,))[0] - float(_member_entropy(bras, rows[None])[0][0])


@dataclass(frozen=True)
class DiscordResult:
    discord: float
    classical_correlation: float
    optimal_basis: MeasurementBasis
    restarts_used: int
    converged: bool
    nfev: int


def _discord_search(blocks: np.ndarray, config: OptimizerConfig) -> list[DiscordResult]:
    """The discords of S measured sides of one dimension d, with the (S, d,
    a, t) ``blocks`` of ``_legs`` rows (measured side, other side, rest),
    their searches in one lockstep.

    A one-dimensional side has one basis and no search.  Up to
    SCAN_MAX_DIM, one call scores the ``_scan`` points of every side by
    value alone (``_lattice_scores``), and each run starts from a point
    ``_grid_starts`` picks, with the scan's first step.  Larger sides all
    start from the same ``_restart_points``, with a unit first step.  One
    ``_multistart_minimize`` call's first round evaluates every start.
    S(measured), S(other) and S(pair) = S(rest) are the leg entropies of
    the same rows, read before ``_narrow`` turns them for the search.
    """
    count, d = blocks.shape[:2]
    narrow = _narrow(blocks)
    n = n_basis_params(d)
    grid_evals, starts = 0, [np.zeros((0, n))] * count
    if n == 0:
        values = _member_entropy(np.ones((count, 1, 1)), narrow)[0].tolist()
        found = [(value, np.zeros(0), True, 0) for value in values]
    else:
        if d <= SCAN_MAX_DIM:
            points, table, neighbours, reach = _scan(d)
            grid_evals, scores = len(points), _lattice_scores(narrow, table)
            starts = [points[_grid_starts(row, neighbours, config.restarts)] for row in scores]
        else:
            reach, starts = 1.0, [_restart_points(d, n, config)] * count
        found = _multistart_minimize(_basis_objective(narrow), starts, config, reach)
    results = []
    for rows, runs, (value, x, converged, nfev) in zip(blocks, starts, found):
        s_measured, s_other, s_pair = _leg_entropies(rows, range(3))
        mi, j_best = s_measured + s_other - s_pair, s_other - value
        basis = MeasurementBasis(_exp_chart(d, d, x)[0])
        results.append(
            DiscordResult(mi - j_best, j_best, basis, len(runs), converged, grid_evals + nfev)
        )
    return results


def discord(
    rho_ab: DensityMatrix,
    measured: int,
    config: OptimizerConfig = OptimizerConfig(),
) -> DiscordResult:
    """Mutual information minus the best projective classical correlation.

    Basis U leaves the members U^dag @ rows, from the rows of rho_AB's
    purification along the measured side (``_legs``), scored by the convex
    roof's objective (``_basis_objective``) and maximized by multi-start
    L-BFGS with the analytic gradient over U = exp(iH), H zero on the
    diagonal (the basis chart of ``_exp_chart``).  Results merge by best
    value, ties to the earlier run.  ``nfev`` counts every objective
    evaluation over all runs, each run's start included (0 on a
    one-dimensional side); ``config.max_evals`` caps each run's.  The
    mutual information is read from the singular values of the same rows.

    On a measured side of dimension d <= 4 (SCAN_MAX_DIM), a fixed set of
    bases (``_scan``: the computational basis, then the GRID_POINTS Bloch
    lattice cells at d = 2, 97 points, or SCAN_POINTS draws at d = 3 and
    4, 129) is scored by value alone, and runs start from its local minima
    (``_grid_starts``: no worse than any of their GRID_NEIGHBOURS nearest
    bases), best first, one run on a flat table (a pure pair, a product
    or a Werner state).  A qubit run's first step spans the lattice's
    covering radius, about 0.13 on the chart; other runs try a unit step.
    ``config.restarts`` caps the runs, ``restarts_used`` is the number
    made, ``nfev`` adds the scores, and ``config.seed`` is unused.  On
    sides of dimension 5 to 8, ``config.restarts`` runs start from the
    computational basis and seeded draws (``_restart_points``).
    """
    measured = _measured_side(rho_ab, measured, "discord")
    _require_measurable(rho_ab.dims[measured])
    rows = _legs(purify(rho_ab).psi, (measured,), (1 - measured,))
    return _discord_search(rows[None], config)[0]


_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SY_SY = np.kron(_SIGMA_Y, _SIGMA_Y)


def _concurrence(psi: PureStateVector, partner: tuple[int, ...]) -> float:
    """Concurrence of the two-qubit pair (A, partner) of a purification,
    from its root X = (A partner, rest) of ``_legs``."""
    root = _legs(psi, (0,), partner).reshape(4, -1)
    lam = np.linalg.svd(root.T @ _SY_SY @ root, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1:].sum()))


def _wootters_eof(c: float) -> float:
    return binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def concurrence(rho_ab: DensityMatrix) -> float:
    """Two-qubit concurrence from the singular values of X^T (sy x sy) X.

    X is a root rho = X X^dag, here the canonical purification's; any two
    differ by an isometry on the right, which keeps the nonzero singular
    values.  They are the square roots of the eigenvalues of rho (sy x sy)
    rho* (sy x sy) (Wootters, PRL 80, 2245 (1998)), found without forming
    that non-Hermitian product, whose eigenvalue roots lose half the digits.
    """
    if rho_ab.dims != (2, 2):
        raise DimensionError(f"concurrence needs dims (2, 2), got {rho_ab.dims}")
    return _concurrence(purify(rho_ab).psi, (1,))


def eof_two_qubit(rho_ab: DensityMatrix) -> float:
    """Closed-form entanglement of formation of a two-qubit state."""
    return _wootters_eof(concurrence(rho_ab))


def _roof_objective(blocks: np.ndarray, m: int):
    """Average entanglement of the m-member decomposition exp(iH)[:, :r]
    applied to the r rows (r, d_a, t) of each of the (S, r, d_a, t)
    ``blocks`` of ``_roof_rows``, as (values, gradients) of a (k, m^2)
    stack over the chart of H whose row i belongs to search owner[i]."""
    rank = blocks.shape[1]

    def objective(x: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        iso, w, v = _exp_chart(m, rank, x)
        value, gamma = _member_entropy(iso, blocks[owner])
        return value, _exp_gradient(m * m, w, v, gamma)

    return objective


def _roof_search(blocks: np.ndarray, config: OptimizerConfig) -> list[float]:
    """The convex roofs of S states of one rank r, with the (S, r, d_a, t)
    ``blocks`` of their ``_roof_rows``, in one lockstep from the same
    ``_restart_points``; a pure state (r = 1) is its own only
    decomposition.  The search reads the blocks ``_narrow`` turns."""
    blocks = _narrow(blocks)
    count, rank = blocks.shape[:2]
    if rank == 1:
        return _member_entropy(np.ones((count, 1, 1)), blocks)[0].tolist()
    m = rank * rank
    starts = [_restart_points(m, m * m, config)] * count
    return [best[0] for best in _multistart_minimize(_roof_objective(blocks, m), starts, config)]


def eof_convex_roof(
    rho_ab: DensityMatrix, config: OptimizerConfig = OptimizerConfig()
) -> float:
    """Upper bound on the entanglement of formation by decomposition search.

    Minimizes sum_i p_i E(psi_i) over pure-state decompositions of m = r^2
    members for a rank-r state, enough to reach the roof (Uhlmann, Open
    Syst. Inf. Dyn. 5, 209 (1998)).  Every such decomposition arises from
    an m x r isometry acting on the r rows of a purification along its
    purifier (``_roof_rows``, here the canonical eigen-ensemble), so the
    isometry is the search variable, charted as the leading columns of
    exp(iH) and searched by multi-start L-BFGS with the analytic gradient.
    The value is exact only at optimizer convergence and is documented as
    an upper bound.  This is the one-search case of ``_roof_search``,
    which audits run with several.
    """
    _require_arity(rho_ab.dims, 2, "eof_convex_roof")
    d_a, d_b = rho_ab.dims
    if d_a * d_b > MAX_EOF_DIM:
        raise CapabilityError(
            f"total dimension {d_a * d_b} exceeds the supported maximum {MAX_EOF_DIM}"
        )
    return _roof_search(_roof_rows(purify(rho_ab).psi, (2,))[None], config)[0]


def discord_via_kw(psi: PureStateVector, measured: int) -> float:
    """Discord of one bipartition of a pure tripartite state, no optimization.

    For a pure global state the monogamy relation is saturated, so the
    discord toward the measured side X equals the complement pair's (A, Y)
    entanglement of formation minus S(A|X) = S(Y) - S(X).  The complement
    pair must be two-qubit so the closed form applies.  Every term is read
    from ``psi`` itself, which is not purified again.
    """
    _require_pure(psi, "discord_via_kw")
    _require_arity(psi.dims, 3, "discord_via_kw")
    measured = _as_int(measured, "measured", 1)
    if measured > 2:
        raise DimensionError(f"measured must be subsystem 1 or 2, got {measured}")
    complement = 3 - measured
    pair = (psi.dims[0], psi.dims[complement])
    if pair != (2, 2):
        raise CapabilityError(f"complement pair has dims {pair}; the closed form needs (2, 2)")
    rows = _legs(psi, (measured,), (0,))  # (X, A, Y)
    eof = _wootters_eof(_concurrence(psi, (complement,)))
    s_y, s_x = _leg_entropies(rows, (2, 0))
    return eof - (s_y - s_x)


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
    """Evaluate the monogamy inequality on a tripartite state with C
    measured: D^(C)(AC) + S(A|C) - E(AB) = E(A:BE) - E(A:B).  B measured is
    ``kw_gap(permute_subsystems(rho_abc, (0, 2, 1)))``; one orientation can
    vanish alone, at T > 0 (C copying a classical A).

    rho_ABC is purified once, to |psi_ABCE>.  E(AB) is Wootters' on the
    root (AB, CE); the C-measured discord of AC runs on the rows (C, A,
    BE), and S(A|C) = S(AC) - S(C) is read from their singular values.
    """
    _require_arity(rho_abc.dims, 3, "kw_gap")
    if rho_abc.dims[:2] != (2, 2):
        raise CapabilityError(
            f"kw_gap needs two-dimensional A and B (exact closed-form EOF), got {rho_abc.dims}"
        )
    _require_measurable(rho_abc.dims[2])
    psi = purify(rho_abc).psi
    eof_ab = _wootters_eof(_concurrence(psi, (1,)))
    rows = _legs(psi, (2,), (0,))
    d_ac = _discord_search(rows[None], config)[0].discord
    s_ac, s_c = _leg_entropies(rows, (2, 0))
    ce_ac = s_ac - s_c
    return KWReport(eof_ab, d_ac, ce_ac, d_ac + ce_ac - eof_ab)


@dataclass(frozen=True)
class TheoremOneAudit:
    """All eight correlation quantities entering the gap identities, the four
    assembled right-hand sides, and the entanglement and discord increments
    under the B -> BE / C -> CE transforms."""

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
    delta_d_b: float
    delta_d_c: float


# The audit's pairs (A, side) as (side, purifier) leg groups of |psi_ABCE>:
# AB, AC, A|BE and A|CE; inside BE and CE the E leg is the faster one.
_AUDIT_PAIRS = (((1,), (2, 3)), ((2,), (1, 3)), ((1, 3), (2,)), ((2, 3), (1,)))


def theorem1_audit(
    rho_abc: DensityMatrix, config: OptimizerConfig = OptimizerConfig()
) -> TheoremOneAudit:
    """Cross-check the correlation decompositions of the gap on one state.

    The envelope is d_A = 2, d_B, d_C <= 2 and rank <= 2, so that every
    entanglement value is either exact (two-qubit) or a tight convex-roof
    bound on a 2x4 state, and every discord side stays optimizable.  Rank
    is the ancilla dimension of the canonical purification, which keeps the
    eigenvalues above EIG_CLIP.  The audit passes no verdict: callers judge
    ``line4`` against ``t_a`` and the increments ``delta_e_b``,
    ``delta_e_c``, ``delta_d_b`` = D(A:BE) - D(A:B) and ``delta_d_c`` with
    their own tolerance.

    All eight quantities are read from one purification |psi_ABCE> of
    rho_ABC, as in the paper.  A pair (A, X) with d_A d_X = 4 takes
    Wootters' closed form on its root, and every other pair a roof on its
    rows along the purifier (``_roof_rows``); each discord runs on the rows
    (X, A, purifier).  The searches run in one lockstep per chart
    (``_by_shape``): at most three on a rank-2 state, the two roofs when
    their ranks match, the qubit discords of AB and AC, and the d = 4
    discords of A|BE and A|CE.
    """
    _require_arity(rho_abc.dims, 3, "theorem1_audit")
    d_a, d_b, d_c = rho_abc.dims
    if d_a != 2 or d_b > 2 or d_c > 2:
        raise CapabilityError(
            f"theorem1_audit envelope is d_A = 2, d_B, d_C <= 2; got {rho_abc.dims}"
        )
    psi = purify(rho_abc).psi
    rank = psi.dims[3]
    if rank > 2:
        raise CapabilityError(
            f"theorem1_audit envelope is rank <= 2, got numerical rank {rank}"
        )
    exact = [d_a * math.prod(psi.dims[leg] for leg in side) == 4 for side, _ in _AUDIT_PAIRS]
    roof_blocks = [_roof_rows(psi, p) for (_, p), e in zip(_AUDIT_PAIRS, exact) if not e]
    roofs = iter(_by_shape(roof_blocks, _roof_search, config))
    eofs = [
        _wootters_eof(_concurrence(psi, side)) if e else next(roofs)
        for (side, _), e in zip(_AUDIT_PAIRS, exact)
    ]
    blocks = [_legs(psi, side, (0,)) for side, _ in _AUDIT_PAIRS]
    discords = [result.discord for result in _by_shape(blocks, _discord_search, config)]
    (e_ab, e_ac, e_abx, e_acx), (d_b, d_c, d_bx, d_cx) = eofs, discords
    lines = (
        (e_abx - e_ab) + (d_cx - d_c),
        (e_acx - e_ac) + (d_bx - d_b),
        (e_abx + e_acx) - (d_b + d_c),
        (d_bx + d_cx) - (e_ab + e_ac),
    )
    increments = (e_abx - e_ab, e_acx - e_ac, d_bx - d_b, d_cx - d_c)
    return TheoremOneAudit(t_gap(rho_abc).t_a, *eofs, *discords, *lines, *increments)


def conservation_check(
    psi: PureStateVector, config: OptimizerConfig = OptimizerConfig()
) -> tuple[float, float]:
    """Both sides of the correlation conservation law for a pure 3-qubit state:
    E(AB) + E(AC) on the left, D^(B)(AB) + D^(C)(AC) on the right.  Every
    term is read from ``psi`` itself, which is not purified again: each
    EOF from its root, each discord from the rows (measured, A, rest).  Both
    discords are qubit-side searches and run in one lockstep (``_by_shape``)."""
    _require_pure(psi, "conservation_check")
    if psi.dims != (2, 2, 2):
        raise CapabilityError(f"conservation_check needs three qubits, got {psi.dims}")
    lhs = sum(_wootters_eof(_concurrence(psi, (side,))) for side in (1, 2))
    d_b, d_c = _by_shape([_legs(psi, (side,), (0,)) for side in (1, 2)], _discord_search, config)
    return lhs, d_b.discord + d_c.discord
