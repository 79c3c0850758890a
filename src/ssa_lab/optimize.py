"""Seeded multi-start L-BFGS, objective-agnostic.

``_multistart_minimize`` runs every restart of several searches in one
lockstep: each run is an ``_lbfgs`` coroutine that yields the points it
needs, and one objective call per round evaluates them all.  The
objectives and their start points (the exp(iH) chart) live in ``qcorr``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .qmat import _as_int

MAX_RESTARTS = 1000


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start settings for the L-BFGS searches.

    Per restart, ``max_evals`` caps the objective evaluations, the start
    included (a hard cap); the stopping rules are fixed constants, see
    ``_lbfgs``.  ``restarts`` is at most MAX_RESTARTS, because one lockstep
    draws and runs every restart of its searches at once.
    """

    restarts: int = 20
    max_evals: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        bounds = (("restarts", 1, MAX_RESTARTS), ("max_evals", 1, None), ("seed", 0, None))
        for name, low, high in bounds:
            value = _as_int(getattr(self, name), name, low, ConfigError, high)
            object.__setattr__(self, name, value)


LBFGS_MEMORY = 10  # curvature pairs kept, the common L-BFGS default
_GRAD_TOL = 1e-8  # largest gradient component that ends a run, converged
_VALUE_TOL = 1e-10  # relative decrease of a step that ends a run, converged
_ARMIJO = 1e-3  # sufficient-decrease constant of the line search
_CURVATURE = 0.9  # weak-Wolfe curvature constant
_LINE_SEARCH_EVALS = 20
_EPS = float(np.finfo(float).eps)


def _multistart_minimize(objective, starts, config: OptimizerConfig, reach=1.0):
    """Seeded multi-start L-BFGS for several searches on one chart, every
    run of every search in one lockstep.

    ``starts`` holds one (R_s, n) stack of start points per search s; each
    row starts one ``_lbfgs`` coroutine, and the first round evaluates
    every start.  ``reach`` is how far every run's first trial step moves
    (``_lbfgs``).  ``objective`` maps a (k, n) stack of points and the (k,)
    index of the search each belongs to onto their values (k,) and
    gradients (k, n).  Every round stacks the pending points of all runs
    still going, makes one objective call and sends row i back to its
    run.  A row's value and gradient do not depend on the other rows, so
    each run takes the same path it would take alone.  Returns one (value,
    point, converged, nfev) per search, the best of its runs with ties
    going to the earlier run, so a fixed seed fixes the outcome:
    ``converged`` is the flag of the run whose point is returned, ``nfev``
    the objective evaluations (rows) over the search's runs.
    """
    owner = np.repeat(np.arange(len(starts)), [len(block) for block in starts])
    runs = [_lbfgs(x, config, reach) for block in starts for x in block]
    pending = {run: next(coroutine) for run, coroutine in enumerate(runs)}
    results = [None] * len(runs)
    while pending:
        active = list(pending)
        values, grads = objective(np.stack([pending[r] for r in active]), owner[active])
        for run, value, grad in zip(active, values.tolist(), grads):
            try:
                pending[run] = runs[run].send((value, grad))
            except StopIteration as stop:
                del pending[run]
                results[run] = stop.value
    searches, first = [], 0
    for block in starts:
        best, nfev = (math.inf, np.zeros(block.shape[1]), False), 0
        for value, x, converged, evals in results[first : first + len(block)]:
            nfev += evals
            if value < best[0]:
                best = (value, x, converged)
        searches.append((*best, nfev))
        first += len(block)
    return searches


def _lbfgs(x: np.ndarray, config: OptimizerConfig, reach=1.0):
    """One L-BFGS run from x, as a coroutine: it yields each point to
    evaluate, x first, is sent back (value, gradient) and returns (value,
    point, converged, nfev).  nfev counts every evaluation, x included,
    and max_evals caps it.

    The direction is the two-loop recursion over the last LBFGS_MEMORY
    curvature pairs (s, y), scaled by s.y / y.y of the newest pair (Liu &
    Nocedal, Math. Prog. 45, 503 (1989); Nocedal & Wright, Alg. 7.4); a
    pair is kept only when s.y > 0.  The step comes from ``_wolfe_step``,
    tried first at reach/|d| while no pair is stored, a move of length
    ``reach``, and at 1 after.  The run stops, converged, when max|g| <=
    _GRAD_TOL or when a step's relative decrease (f_k - f_k+1) / max(|f_k|,
    |f_k+1|, 1) is <= _VALUE_TOL, and, not converged, after max_evals
    evaluations or when the line search along -g fails.
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
        first = 1.0 if pairs else reach / math.sqrt(direction.dot(direction))
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

