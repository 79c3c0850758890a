"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest -s`` to see the lines as they pass)."""

import itertools
import math

import numpy as np

import ssa_lab as sl

from conftest import collide_embeddings, grid_discord_two_qubit, random_two_block_params


def _report(num: int, ok: bool, detail: str, work=None) -> None:
    """One pass/fail line; an optimizer-backed criterion adds its work
    counts (the ``work`` fixture), which are reported, not asserted."""
    work = "" if work is None else f"; {work}"
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}{work}"
    print(line)
    assert ok, line


def test_criterion_01_closed_form_vs_entropic():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        params = random_two_block_params(rng)
        closed = sl.gap_closed_form(params)
        numeric = sl.t_gap(sl.two_block_state(params)).t_a
        worst = max(worst, abs(closed - numeric))
    _report(
        1,
        worst <= 1e-8,
        f"closed form vs entropic gap over 500 random draws, worst |diff| = {worst:.3e}",
    )


def test_criterion_02_zero_locus():
    grid = np.linspace(0.0, 1.0, 21)
    mismatches = 0
    for lambda1, b, beta2 in itertools.product(grid, grid, grid):
        params = sl.TwoBlockParams(lambda1=float(lambda1), b=float(b), beta2=float(beta2))
        vanishes = sl.gap_closed_form(params) <= 1e-10
        locus = params.gamma <= 1e-12
        if vanishes != locus:
            mismatches += 1
    _report(
        2,
        mismatches == 0,
        f"gap <= 1e-10 iff gamma <= 1e-12 on the 21^3 grid, {mismatches} mismatches",
    )


# pinned at the first verified run (structural acceptance; no reference table
# exists for the surfaces, so the interior maximum guards regressions)
GOLDEN_ARGMAX = {"a": (63, 63), "b": (61, 63)}
GOLDEN_MAX = {"a": 0.21040208776627667, "b": 0.4129978995829542}


def test_criterion_03_sweep_surfaces():
    details = []
    ok = True
    for figure in ("a", "b"):
        grid = sl.sweep_figure(figure, steps=64)
        edge1 = float(np.max(np.abs(grid.closed_form[0, :])))
        edge2 = float(np.max(np.abs(grid.closed_form[:, 0])))
        interior = sl.gap_closed_form(sl.DEFAULT_PARAMS)
        cross = float(np.max(np.abs(grid.closed_form - grid.numeric)))
        jump = max(
            float(np.max(np.abs(np.diff(grid.closed_form, axis=0)))),
            float(np.max(np.abs(np.diff(grid.closed_form, axis=1)))),
        )
        argmax = np.unravel_index(int(np.argmax(grid.closed_form)), grid.closed_form.shape)
        peak = float(grid.closed_form[argmax])
        ok = ok and edge1 <= 1e-10 and edge2 <= 1e-10
        ok = ok and interior > 1e-4
        ok = ok and cross <= 1e-8
        ok = ok and jump <= 0.1
        ok = ok and tuple(int(i) for i in argmax) == GOLDEN_ARGMAX[figure]
        ok = ok and abs(peak - GOLDEN_MAX[figure]) <= 1e-9
        details.append(
            f"sweep {figure}: edges ({edge1:.1e}, {edge2:.1e}), "
            f"closed-vs-numeric {cross:.1e}, max jump {jump:.3f}, "
            f"peak {peak:.6f} at {tuple(int(i) for i in argmax)}"
        )
    _report(3, ok, "; ".join(details))


def test_criterion_04_ssa_property_suite():
    worst = math.inf
    count = 0
    for dims in ((2, 2, 2), (2, 2, 4), (2, 4, 4)):
        side = dims[0] * dims[1] * dims[2]
        for rank in (side, 2):
            seeds = np.random.SeedSequence((hash(dims) & 0xFFFF) + rank).generate_state(1000)
            for seed in seeds:
                rho = sl.random_density(dims, rank=rank, seed=int(seed))
                margin = min(sl.t_gap(rho).t_a, sl.ssa_gap_form1(rho))
                worst = min(worst, margin)
                count += 1
    _report(
        4,
        worst >= -1e-9,
        f"both gap forms >= -1e-9 over {count} random states, worst margin = {worst:.3e}",
    )


def test_criterion_05_concavity():
    rng = np.random.default_rng(505)
    worst_gap = math.inf
    for _ in range(500):
        members = [sl.random_density([2, 2, 2], seed=rng) for _ in range(2)]
        w = float(rng.uniform(0.05, 0.95))
        lhs, rhs = sl.concavity_check(sl.Ensemble([w, 1 - w], members))
        worst_gap = min(worst_gap, lhs - rhs)

    def embedded(offset, seed):
        small = sl.random_density([2, 2, 2], seed=seed)
        v = np.zeros((4, 2))
        v[offset : offset + 2] = np.eye(2)
        iso = np.kron(np.eye(2), np.kron(v, v))
        return sl.DensityMatrix((2, 4, 4), iso @ small.data @ iso.T)

    worst_eq = 0.0
    for _ in range(100):
        members = [embedded(0, rng), embedded(2, rng)]
        w = float(rng.uniform(0.05, 0.95))
        lhs, rhs = sl.concavity_check(sl.Ensemble([w, 1 - w], members))
        worst_eq = max(worst_eq, abs(lhs - rhs))
    _report(
        5,
        worst_gap >= -1e-9 and worst_eq <= 1e-8,
        f"concavity margin >= {worst_gap:.3e} over 500 random ensembles; "
        f"orthogonal-marginal equality within {worst_eq:.3e} over 100 ensembles",
    )


def test_criterion_06_upper_bound():
    worst_dev = 0.0
    for d_a in (2, 3):
        identity = sl.validate_density(np.eye(d_a) / d_a, [d_a])
        bound = 2.0 * math.log2(d_a)
        for seed in range(50):
            rho_bc = sl.random_density([2, 2], seed=1000 * d_a + seed)
            rho = sl.tensor_density(identity, rho_bc)
            rho = sl.DensityMatrix((d_a, 2, 2), rho.data)
            worst_dev = max(worst_dev, abs(sl.t_gap(rho).t_a - bound))
    closest = 0.0
    for seed in range(200):
        rho = sl.random_density([2, 2, 2], seed=6000 + seed)
        closest = max(closest, sl.t_gap(rho).t_a)
    _report(
        6,
        worst_dev <= 1e-9 and closest < 2.0 - 1e-6,
        f"maximizer states reach 2*log2(d_A) within {worst_dev:.3e}; "
        f"largest gap among 200 generic states = {closest:.6f} < 2 - 1e-6",
    )


def test_criterion_07_theorem2_soundness():
    rng = np.random.default_rng(707)
    dims_cycle = [(2, 2, 2), (2, 3, 3), (2, 4, 4), (3, 3, 4), (2, 2, 4)]
    worst_built = 0.0
    for k in range(200):
        spec = sl.random_saturating_spec(dims_cycle[k % len(dims_cycle)], rng)
        worst_built = max(worst_built, sl.t_gap(sl.build_saturating(spec)).t_a)
    broken = 0
    for k in range(200):
        spec = sl.random_saturating_spec(
            dims_cycle[k % len(dims_cycle)], rng, min_blocks=2
        )
        bad = collide_embeddings(spec)
        if sl.t_gap(sl.build_saturating(bad)).t_a > 1e-5:
            broken += 1
    _report(
        7,
        worst_built <= 1e-8 and broken >= 190,
        f"200 random specs build states with gap <= {worst_built:.3e}; "
        f"{broken}/200 orthogonality-violating perturbations exceed 1e-5",
    )


def test_criterion_08_conservation_law(work):
    worst = 0.0
    for k in range(100):
        psi = sl.random_pure([2, 2, 2], seed=8000 + k)
        lhs, rhs = sl.conservation_check(
            psi, sl.OptimizerConfig(restarts=20, seed=8500 + k)
        )
        worst = max(worst, abs(lhs - rhs))
    _report(
        8,
        worst <= 2e-4,
        f"|E(AB)+E(AC) - D(AB)-D(AC)| <= {worst:.3e} over 100 Haar pure 3-qubit states",
        work,
    )


def test_criterion_09_kw_inequality(work):
    worst_random = math.inf
    for k in range(300):
        rho = sl.random_density([2, 2, 2], seed=9000 + k)
        report = sl.kw_gap(rho, sl.OptimizerConfig(restarts=6, seed=9500 + k))
        worst_random = min(worst_random, report.gap)
    rng = np.random.default_rng(909)
    worst_built = 0.0
    for k in range(50):
        spec = sl.random_saturating_spec([2, 2, 2], rng)
        built = sl.build_saturating(spec)
        report = sl.kw_gap(built, sl.OptimizerConfig(restarts=10, seed=9700 + k))
        worst_built = max(worst_built, abs(report.gap))
    _report(
        9,
        worst_random >= -1e-4 and worst_built <= 1e-4,
        f"monogamy gap >= {worst_random:.3e} over 300 random states; "
        f"|gap| <= {worst_built:.3e} over 50 built saturating states",
        work,
    )


def test_criterion_10_theorem1_audit(work):
    worst_line4 = 0.0
    worst_delta = math.inf
    for k in range(50):
        rho = sl.random_density([2, 2, 2], rank=2, seed=10_000 + k)
        audit = sl.theorem1_audit(
            rho, sl.OptimizerConfig(restarts=4, max_evals=1000, seed=10_500 + k)
        )
        worst_line4 = max(worst_line4, abs(audit.line4 - audit.t_a))
        worst_delta = min(worst_delta, audit.delta_e_b, audit.delta_e_c)
    _report(
        10,
        worst_line4 <= 5e-4 and worst_delta >= -5e-4,
        f"|line4 - gap| <= {worst_line4:.3e} and entanglement increments "
        f">= {worst_delta:.3e} over 50 rank-2 states",
        work,
    )


def test_criterion_11_discord_vs_brute_force(work):
    worst = 0.0
    for k in range(20):
        rho = sl.random_density([2, 2], seed=11_000 + k)
        opt = sl.discord(rho, 1, sl.OptimizerConfig(restarts=20, seed=11_500 + k))
        oracle = grid_discord_two_qubit(rho, n=400)
        worst = max(worst, abs(opt.discord - oracle))
    _report(
        11,
        worst <= 1e-5,
        f"discord (restarts=20) vs 400x400 grid optimum, worst |diff| = {worst:.3e}",
        work,
    )


def test_criterion_12_wootters_vs_convex_roof(work):
    worst = 0.0
    for k in range(100):
        rho = sl.random_density([2, 2], rank=2, seed=12_000 + k)
        closed = sl.eof_two_qubit(rho)
        roof = sl.eof_convex_roof(
            rho, config=sl.OptimizerConfig(restarts=3, max_evals=800, seed=12_500 + k)
        )
        worst = max(worst, abs(closed - roof))
    _report(
        12,
        worst <= 1e-4,
        f"|Wootters - convex roof| <= {worst:.3e} over 100 rank-2 two-qubit states",
        work,
    )
