import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ssa_lab as sl
from ssa_lab.errors import CapabilityError, ConfigError, DimensionError
from ssa_lab.qcorr import (
    _basis_objective,
    _cc_evaluator,
    _lbfgs,
    _multistart_minimize,
    _roof_objective,
)

from conftest import bell_phi_plus, ghz_state, grid_discord_two_qubit, tensor_pure, w_state


def _rows(point_objective):
    """The stacked objective that evaluates ``point_objective`` once per row."""

    def objective(x):
        rows = [point_objective(row) for row in x]
        return np.array([value for value, _ in rows]), np.array([grad for _, grad in rows])

    return objective


class TestClassicalCorrelation:
    def test_product_state_any_basis(self):
        rho = sl.tensor_density(sl.random_density([2], seed=1), sl.random_density([2], seed=2))
        for basis in (
            sl.MeasurementBasis.computational(2),
            sl.MeasurementBasis.from_angles(2, [0.7, 1.1]),
        ):
            assert sl.classical_correlation_at(rho, basis, 1) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_maximally_entangled_computational(self):
        rho = bell_phi_plus().to_density()
        basis = sl.MeasurementBasis.computational(2)
        assert sl.classical_correlation_at(rho, basis, 1) == pytest.approx(1.0, abs=1e-10)

    def test_classical_state_in_conjugate_basis(self):
        # 1/2(|00><00| + |11><11|) measured in the X basis: both outcomes
        # occur with probability 1/2 and leave the maximally mixed state,
        # so the hand-computed correlation is 1 - 1 = 0
        rho = sl.validate_density(np.diag([0.5, 0.0, 0.0, 0.5]), [2, 2])
        x_basis = sl.MeasurementBasis(
            np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        )
        plus = x_basis.vectors[:, 0]
        r4 = rho.data.reshape(2, 2, 2, 2)
        cond = np.einsum("j,ajbk,k->ab", plus.conj(), r4, plus)
        p_plus = float(np.trace(cond).real)
        assert p_plus == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(cond / p_plus, np.eye(2) / 2, atol=1e-12)
        assert sl.classical_correlation_at(rho, x_basis, 1) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_dimension_mismatch(self):
        rho = sl.random_density([2, 3], seed=1)
        with pytest.raises(DimensionError):
            sl.classical_correlation_at(rho, sl.MeasurementBasis.computational(2), 1)


class TestDiscord:
    def test_product_state(self):
        rho = sl.tensor_density(sl.random_density([2], seed=3), sl.random_density([2], seed=4))
        result = sl.discord(rho, 1, sl.OptimizerConfig(restarts=4, seed=1))
        assert abs(result.discord) <= 1e-8

    def test_maximally_entangled(self):
        result = sl.discord(
            bell_phi_plus().to_density(), 1, sl.OptimizerConfig(restarts=4, seed=1)
        )
        assert result.discord == pytest.approx(1.0, abs=1e-6)
        result0 = sl.discord(
            bell_phi_plus().to_density(), 0, sl.OptimizerConfig(restarts=4, seed=1)
        )
        assert result0.discord == pytest.approx(1.0, abs=1e-6)

    def test_werner_matches_grid_oracle(self):
        p = 0.5
        rho = sl.validate_density(
            p * bell_phi_plus().to_density().data + (1 - p) * np.eye(4) / 4, [2, 2]
        )
        opt = sl.discord(rho, 1, sl.OptimizerConfig(restarts=20, seed=2))
        oracle = grid_discord_two_qubit(rho)
        assert opt.discord == pytest.approx(oracle, abs=1e-5)

    def test_sum_rule_and_slack(self):
        for seed in range(10):
            rho = sl.random_density([2, 2], seed=seed)
            result = sl.discord(rho, 1, sl.OptimizerConfig(restarts=6, seed=seed))
            mi = sl.mutual_information(rho)
            assert result.discord + result.classical_correlation == pytest.approx(
                mi, abs=1e-8
            )
            assert result.discord >= -1e-6

    def test_asymmetry_fixture(self):
        # classical on A (so measuring A reveals everything) but quantum on B
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        rho = sl.validate_density(
            0.5 * np.kron(np.diag([1.0, 0.0]), np.outer(plus, plus))
            + 0.5 * np.kron(np.diag([0.0, 1.0]), np.diag([1.0, 0.0])),
            [2, 2],
        )
        cfg = sl.OptimizerConfig(restarts=10, seed=3)
        d_a = sl.discord(rho, 0, cfg).discord
        d_b = sl.discord(rho, 1, cfg).discord
        assert abs(d_a) <= 1e-7
        assert d_b > 0.05

    def test_optimal_basis_is_valid(self):
        # a qubit side polishes the grid's local minima, at most `restarts`
        # of them; a larger side runs exactly `restarts`
        for dims, used in (((2, 2), range(1, 5)), ((2, 3), [4])):
            rho = sl.random_density(list(dims), seed=5)
            result = sl.discord(rho, 1, sl.OptimizerConfig(restarts=4, seed=5))
            vectors = result.optimal_basis.vectors
            assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(dims[1]))) <= 1e-10
            assert result.restarts_used in used
            assert result.converged

    def test_capability_limit(self):
        rho = sl.random_density([2, 9], seed=1)
        with pytest.raises(CapabilityError):
            sl.discord(rho, 1)

    def test_converged_describes_returned_point(self):
        # Flat near the origin, so restart 0 converges; unbounded below
        # elsewhere, so the winning restart does not converge.
        def objective(x):
            r = float(np.linalg.norm(x))
            return (0.0, np.zeros_like(x)) if r < 1.0 else (-r, -x / r)

        cfg = sl.OptimizerConfig(restarts=3, max_evals=200, seed=0)
        best_val, _, converged, _ = _multistart_minimize(_rows(objective), 2, cfg)
        assert best_val < -1.0
        assert converged is False

    def test_nfev_counts_every_evaluation(self):
        calls = []

        def objective(x):
            calls.append(1)
            return float(np.sum((x - 1.0) ** 2)), 2.0 * (x - 1.0)

        cfg = sl.OptimizerConfig(restarts=3, seed=0)
        best_val, best_x, converged, nfev = _multistart_minimize(_rows(objective), 3, cfg)
        assert nfev == len(calls) >= 3
        assert best_val <= 1e-12 and converged
        np.testing.assert_allclose(best_x, np.ones(3), atol=1e-6)

    def test_result_reports_nfev(self):
        rho = sl.random_density([2, 2], rank=2, seed=6)
        result = sl.discord(rho, 1, sl.OptimizerConfig(restarts=4, seed=6))
        assert 4 <= result.nfev <= 4 * 2000
        trivial = sl.discord(sl.random_density([2, 1], seed=1), 1)
        assert trivial.nfev == 0

    def test_trivial_measured_side(self):
        rho = sl.random_density([2, 1], seed=1)
        result = sl.discord(rho, 1)
        assert abs(result.discord) <= 1e-10

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(
        dims=st.sampled_from([(2, 3), (3, 3), (2, 4)]),
        rank=st.sampled_from([None, 2]),
        state_seed=st.integers(0, 2**32 - 1),
        rotation_seed=st.integers(0, 2**32 - 1),
    )
    def test_local_unitary_invariance_beyond_qubits(self, dims, rank, state_seed, rotation_seed):
        # a measured side of dimension 3 or 4 has no grid: the random
        # restarts on the basis chart must reach the same optimum wherever
        # V_B moves it
        d_a, d_b = dims
        rho = sl.random_density([d_a, d_b], rank=rank, seed=state_seed)
        rng = np.random.default_rng(rotation_seed)
        u = np.kron(_haar_unitary(d_a, rng), _haar_unitary(d_b, rng))
        rotated = sl.DensityMatrix((d_a, d_b), u @ rho.data @ u.conj().T)
        config = sl.OptimizerConfig(restarts=6)
        base = sl.discord(rho, 1, config).discord
        assert sl.discord(rotated, 1, config).discord == pytest.approx(base, abs=1e-9)


N_GRID = 1 + sl.qcorr.GRID_THETA * sl.qcorr.GRID_PHI  # the origin and the cells


def _qubit_search(rho, measured):
    """S of the unmeasured side and the stacked objective over the qubit chart."""
    s_other, evaluate = _cc_evaluator(rho, measured)
    return s_other, _basis_objective(2, evaluate)


def _random_restart_discord(rho, measured, config):
    """Discord from ``_multistart_minimize``'s random starts alone."""
    s_other, objective = _qubit_search(rho, measured)
    value = _multistart_minimize(objective, 2, config)[0]
    return sl.mutual_information(rho) - (s_other - value)


def _haar_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestQubitGrid:
    def test_matches_twenty_random_restarts(self):
        cases = []
        for seed in range(15):  # AB marginals of Haar pure 3-qubit states
            psi = sl.random_pure([2, 2, 2], seed=1300 + seed)
            cases.append((sl.partial_trace(psi.to_density(), {0, 1}), 1))
        for seed in range(10):  # full-rank 2x2 on either side, 4x2 on the qubit
            cases.append((sl.random_density([2, 2], seed=1400 + seed), 0))
            cases.append((sl.random_density([2, 2], seed=1450 + seed), 1))
            cases.append((sl.random_density([4, 2], rank=2, seed=1500 + seed), 1))
        worst = 0.0
        for k, (rho, measured) in enumerate(cases):
            grid = sl.discord(rho, measured, sl.OptimizerConfig(seed=k)).discord
            oracle = _random_restart_discord(
                rho, measured, sl.OptimizerConfig(restarts=20, seed=1600 + k)
            )
            worst = max(worst, abs(grid - oracle))
        assert worst <= 1e-10

    def test_result_does_not_depend_on_seed(self):
        rho = sl.random_density([2, 2], seed=41)
        first, second = (
            sl.discord(rho, 1, sl.OptimizerConfig(restarts=4, seed=seed)) for seed in (1, 2)
        )
        assert first.discord == second.discord
        assert (first.nfev, first.restarts_used) == (second.nfev, second.restarts_used)
        assert np.array_equal(first.optimal_basis.vectors, second.optimal_basis.vectors)

    def test_nfev_counts_the_grid(self):
        for measured in (0, 1):
            result = sl.discord(sl.random_density([2, 2], seed=42), measured)
            assert result.nfev >= N_GRID + result.restarts_used

    def test_one_restart_polishes_the_best_cell(self):
        rho = sl.random_density([2, 2], seed=43)
        config = sl.OptimizerConfig(restarts=1)
        result = sl.discord(rho, 1, config)
        s_other, objective = _qubit_search(rho, 1)
        values = objective(sl.qcorr._QUBIT_GRID)[0]
        best = sl.qcorr._QUBIT_GRID[np.argmin(values)]
        value, _, _, nfev = _multistart_minimize(objective, 2, config, starts=best[None])
        assert result.restarts_used == 1
        assert result.nfev == N_GRID + nfev
        assert result.classical_correlation == s_other - value >= s_other - values.min()

    def test_one_evaluation_per_run_returns_a_valid_basis(self):
        rho = sl.random_density([2, 2], seed=44)
        result = sl.discord(rho, 1, sl.OptimizerConfig(max_evals=1))
        vectors = result.optimal_basis.vectors
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(2))) <= 1e-10
        assert result.nfev == N_GRID + result.restarts_used
        s_other, objective = _qubit_search(rho, 1)
        best = s_other - objective(sl.qcorr._QUBIT_GRID)[0].min()
        assert result.classical_correlation == pytest.approx(best, abs=1e-14)
        assert sl.classical_correlation_at(rho, result.optimal_basis, 1) == pytest.approx(
            best, abs=1e-12
        )

    def test_grid_bases_are_the_givens_cells(self):
        # cell (theta_i, phi_j), in row order after the origin, is the
        # Givens rotation (theta_i, phi_j)
        q = sl.qcorr
        theta = (np.arange(q.GRID_THETA) + 0.5) * (0.25 * np.pi / q.GRID_THETA)
        phi = np.arange(q.GRID_PHI) * (2.0 * np.pi / q.GRID_PHI)
        expected = [np.eye(2)] + [q.givens_unitary(2, [t, p]) for t in theta for p in phi]
        np.testing.assert_allclose(q._QUBIT_BASES, expected, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(q._QUBIT_BASES, q._basis_chart(2, q._QUBIT_GRID)[0])

    def test_best_point_is_always_a_start(self):
        # random values with many ties: the first start is the first best point
        rng = np.random.default_rng(45)
        for _ in range(200):
            values = rng.integers(0, 6, N_GRID).astype(float)
            starts = sl.qcorr._grid_starts(values, 20)
            np.testing.assert_array_equal(starts[0], sl.qcorr._QUBIT_GRID[np.argmin(values)])
            assert 1 <= len(starts) <= 20

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        side=st.sampled_from([((2, 2), 1), ((2, 2), 0), ((4, 2), 1), ((2, 3), 0)]),
        rank=st.sampled_from([None, 2]),
        state_seed=st.integers(0, 2**32 - 1),
        rotation_seed=st.integers(0, 2**32 - 1),
    )
    def test_local_unitary_invariance(self, side, rank, state_seed, rotation_seed):
        # V on the measured qubit moves the optimum off the grid cells
        (d_a, d_b), measured = side
        rho = sl.random_density([d_a, d_b], rank=rank, seed=state_seed)
        rng = np.random.default_rng(rotation_seed)
        u = np.kron(_haar_unitary(d_a, rng), _haar_unitary(d_b, rng))
        rotated = sl.DensityMatrix((d_a, d_b), u @ rho.data @ u.conj().T)
        base = sl.discord(rho, measured).discord
        assert sl.discord(rotated, measured).discord == pytest.approx(base, abs=1e-9)


def _rosenbrock(x):
    a, b = x[:-1], x[1:]
    r = b - a * a
    grad = np.zeros_like(x)
    grad[:-1] = -400.0 * a * r - 2.0 * (1.0 - a)
    grad[1:] += 200.0 * r
    return float(np.sum(100.0 * r * r + (1.0 - a) ** 2)), grad


class TestLBFGS:
    @pytest.mark.parametrize("n", [2, 10])
    def test_rosenbrock(self, n):
        value, x, converged, _ = _multistart_minimize(
            _rows(_rosenbrock), n, sl.OptimizerConfig(restarts=1)
        )
        assert value <= 1e-10 and converged
        np.testing.assert_allclose(x, np.ones(n), atol=1e-4)

    def test_max_evals_is_a_hard_cap(self):
        calls = []

        def objective(x):
            calls.append(1)
            return _rosenbrock(x)

        cfg = sl.OptimizerConfig(restarts=3, max_evals=5, seed=2)
        _, _, converged, nfev = _multistart_minimize(_rows(objective), 10, cfg)
        assert nfev == len(calls) == 5 * 3
        assert converged is False

    def test_quadratic_stops_on_the_gradient_rule(self, monkeypatch):
        # a zero value rule leaves only the gradient rule to end a run that
        # still lowers the value
        monkeypatch.setattr(sl.qcorr, "_VALUE_TOL", 0.0)
        scales = np.arange(1.0, 7.0)

        def objective(x):
            return float(0.5 * np.sum(scales * (x - 0.5) ** 2)), scales * (x - 0.5)

        cfg = sl.OptimizerConfig(restarts=2, seed=4)
        _, x, converged, _ = _multistart_minimize(_rows(objective), 6, cfg)
        assert converged
        assert np.max(np.abs(objective(x)[1])) <= 1e-8

    def test_seeded_runs_are_bit_identical(self):
        cfg = sl.OptimizerConfig(restarts=4, seed=9)
        first = _multistart_minimize(_rows(_rosenbrock), 4, cfg)
        second = _multistart_minimize(_rows(_rosenbrock), 4, cfg)
        assert first[0] == second[0] and first[3] == second[3]
        assert np.array_equal(first[1], second[1])


class TestOptimizerConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("restarts", 0),
            ("restarts", -3),
            ("max_evals", 0),
            ("max_evals", -5),
            ("seed", -1),
        ],
    )
    def test_bad_settings_rejected(self, field, value):
        with pytest.raises(ConfigError):
            sl.OptimizerConfig(**{field: value})

    def test_zero_tolerances_allowed(self):
        cfg = sl.OptimizerConfig(restarts=1, max_evals=1)
        assert cfg.restarts == cfg.max_evals == 1


def _serial_minimize(objective, n, config, spread=np.pi):
    """Each restart's L-BFGS run alone with 1-row objective calls, on the
    draws of ``_multistart_minimize``: (best value, converged, summed nfev)."""
    rng = np.random.default_rng(config.seed)
    best, converged, nfev = math.inf, False, 0
    for restart in range(config.restarts):
        run = _lbfgs(np.zeros(n) if restart == 0 else rng.uniform(0.0, spread, n), config)
        point = next(run)
        while True:
            values, grads = objective(point[None])
            try:
                point = run.send((float(values[0]), grads[0]))
            except StopIteration as stop:
                value, _, flag, evals = stop.value
                break
        nfev += evals
        if value < best:
            best, converged = value, flag
    return best, converged, nfev


def _discord_search(dims, seed):
    rho = sl.random_density(list(dims), seed=seed)
    objective = _basis_objective(dims[1], _cc_evaluator(rho, 1)[1])
    return objective, sl.qcorr.n_basis_params(dims[1]), np.pi


def _roof_search(dims, seed):
    rho = sl.random_density(list(dims), rank=2, seed=seed)
    factors = np.moveaxis(sl.purify(rho).psi.amps.reshape(dims[0], dims[1], 2), -1, 0)
    return _roof_objective(factors, 4), 16, np.pi


class TestLockstep:
    @pytest.mark.parametrize(
        "search, dims, config",
        [
            (_discord_search, (2, 2), sl.OptimizerConfig(restarts=6, seed=21)),
            (_discord_search, (2, 4), sl.OptimizerConfig(restarts=4, max_evals=1000, seed=22)),
            (_roof_search, (2, 2), sl.OptimizerConfig(restarts=3, max_evals=800, seed=23)),
        ],
        ids=["discord-2x2", "discord-2x4", "roof-rank2"],
    )
    def test_lockstep_matches_serial(self, search, dims, config):
        objective, n, spread = search(dims, config.seed)
        value, _, converged, nfev = _multistart_minimize(objective, n, config)
        serial_value, serial_converged, serial_nfev = _serial_minimize(
            objective, n, config, spread
        )
        assert abs(value - serial_value) <= 1e-12
        assert converged == serial_converged
        assert nfev == serial_nfev


def _central_differences(objective, x, step=1e-6):
    """Central differences of a stacked objective at one point, from one
    call on the 2n probe points."""
    probes = step * np.eye(x.shape[0])
    values = objective(np.concatenate((x + probes, x - probes)))[0]
    return (values[: x.shape[0]] - values[x.shape[0] :]) / (2.0 * step)


def _assert_rows_match_single_calls(objective, x, values, grads):
    for row, value, grad in zip(x, values, grads):
        single_value, single_grad = objective(row[None])
        assert abs(single_value[0] - value) <= 1e-14
        np.testing.assert_allclose(single_grad[0], grad, rtol=0, atol=1e-14)


class TestAnalyticGradients:
    @pytest.mark.parametrize("measured", [0, 1])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_discord_gradient(self, d, measured):
        rng = np.random.default_rng(100 * d + measured)
        dims = [3, 3]
        dims[measured] = d
        rho = sl.random_density(dims, seed=int(rng.integers(1 << 30)))
        s_other, evaluate = _cc_evaluator(rho, measured)
        objective = _basis_objective(d, evaluate)
        x = rng.uniform(-4.0, 4.0, (3, sl.qcorr.n_basis_params(d)))
        values, grads = objective(x)
        _assert_rows_match_single_calls(objective, x, values, grads)
        for row, value, grad in zip(x, values, grads):
            basis = sl.MeasurementBasis(sl.qcorr._basis_chart(d, row)[0])
            assert s_other - value == pytest.approx(
                sl.classical_correlation_at(rho, basis, measured), abs=1e-13
            )
            np.testing.assert_allclose(
                grad, _central_differences(objective, row), rtol=0, atol=1e-8
            )

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 4)])
    def test_roof_gradient(self, dims, rank):
        rng = np.random.default_rng(10 * rank + dims[1])
        rho = sl.random_density(list(dims), rank=rank, seed=int(rng.integers(1 << 30)))
        amps = sl.purify(rho).psi.amps.reshape(dims[0], dims[1], rank)
        factors = np.moveaxis(amps, -1, 0)
        m = rank * rank
        objective = _roof_objective(factors, m)
        x = rng.uniform(-4.0, 4.0, (3, m * m))
        values, grads = objective(x)
        _assert_rows_match_single_calls(objective, x, values, grads)
        for row, value, grad in zip(x, values, grads):
            # the members are the chart's isometry applied to the factors
            iso = sl.qcorr._exp_chart(m, rank, row)[0]
            members = np.einsum("ij,jab->iab", iso, factors)
            expected = 0.0
            for member in members:
                weight = float(np.vdot(member, member).real)
                if weight > 1e-12:
                    state = sl.DensityMatrix((dims[0],), member @ member.conj().T / weight)
                    expected += weight * sl.von_neumann_entropy(state)
            assert value == pytest.approx(expected, abs=1e-12)
            np.testing.assert_allclose(
                grad, _central_differences(objective, row), rtol=0, atol=1e-8
            )


class TestGivensChart:
    def test_qubit_chart_matches_bloch(self):
        theta, phi = 0.4, 1.3
        u = sl.MeasurementBasis.from_angles(2, [theta, phi]).vectors
        expected0 = np.array([math.cos(theta), np.exp(-1j * phi) * math.sin(theta)])
        np.testing.assert_allclose(u[:, 0], expected0, atol=1e-12)

    def test_unitary_for_higher_dims(self):
        rng = np.random.default_rng(11)
        for d in (3, 4):
            params = rng.uniform(0, 2 * np.pi, d * (d - 1))
            u = sl.qcorr.givens_unitary(d, params)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-12)

    def test_param_count_enforced(self):
        with pytest.raises(ConfigError):
            sl.qcorr.givens_unitary(3, np.zeros(4))

    def test_matches_product_of_rotations(self):
        # pairs (i < j) in row order, each rotation applied on the left
        rng = np.random.default_rng(12)
        for d in (1, 2, 3, 4, 5):
            params = rng.uniform(-7.0, 7.0, d * (d - 1))
            expected = np.eye(d, dtype=complex)
            k = 0
            for i in range(d - 1):
                for j in range(i + 1, d):
                    theta, phi = params[k], params[k + 1]
                    k += 2
                    g = np.eye(d, dtype=complex)
                    g[i, i] = g[j, j] = math.cos(theta)
                    g[i, j] = -np.exp(1j * phi) * math.sin(theta)
                    g[j, i] = np.exp(-1j * phi) * math.sin(theta)
                    expected = g @ expected
            np.testing.assert_allclose(
                sl.qcorr.givens_unitary(d, params), expected, rtol=0, atol=1e-14
            )


class TestWootters:
    def test_maximally_entangled(self):
        rho = bell_phi_plus().to_density()
        assert sl.concurrence(rho) == pytest.approx(1.0, abs=1e-10)
        assert sl.eof_two_qubit(rho) == pytest.approx(1.0, abs=1e-10)

    def test_separable_product(self):
        rho = sl.tensor_density(sl.random_density([2], seed=7), sl.random_density([2], seed=8))
        assert sl.concurrence(rho) == pytest.approx(0.0, abs=1e-8)
        assert sl.eof_two_qubit(rho) == pytest.approx(0.0, abs=1e-8)

    def test_mixture_against_convex_roof(self):
        rho = sl.validate_density(
            0.5 * bell_phi_plus().to_density().data + 0.5 * np.diag([1.0, 0, 0, 0]),
            [2, 2],
        )
        closed = sl.eof_two_qubit(rho)
        roof = sl.eof_convex_roof(rho, config=sl.OptimizerConfig(restarts=6, seed=4))
        assert closed == pytest.approx(roof, abs=1e-4)

    def test_local_unitary_invariance(self, rng):
        rho = sl.random_density([2, 2], seed=9)
        base = sl.eof_two_qubit(rho)
        for _ in range(5):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, r = np.linalg.qr(z)
            u_a = q * (np.diag(r) / np.abs(np.diag(r)))
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, r = np.linalg.qr(z)
            u_b = q * (np.diag(r) / np.abs(np.diag(r)))
            u = np.kron(u_a, u_b)
            rotated = sl.DensityMatrix((2, 2), u @ rho.data @ u.conj().T)
            assert sl.eof_two_qubit(rotated) == pytest.approx(base, abs=1e-9)

    def test_wrong_dims(self):
        with pytest.raises(DimensionError):
            sl.concurrence(sl.random_density([2, 3], seed=1))

    def test_pure_states_match_determinant_form(self):
        worst = 0.0
        for seed in range(2000):
            psi = sl.random_pure([2, 2], seed=seed)
            a = psi.amps
            exact = 2.0 * abs(a[0] * a[3] - a[1] * a[2])
            worst = max(worst, abs(sl.concurrence(psi.to_density()) - exact))
        assert worst <= 1e-12

    def test_mixed_states_match_eigenvalue_form(self):
        # the spin-flipped spectrum: square roots of the eigenvalues of
        # rho (sy x sy) rho* (sy x sy); a zero eigenvalue comes back as
        # roundoff whose root is ~1e-8, so full-rank states only
        sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        flip = np.kron(sy, sy)
        for seed in range(200):
            rho = sl.random_density([2, 2], seed=300 + seed)
            ev = np.linalg.eigvals(rho.data @ flip @ rho.data.conj() @ flip).real
            lam = np.sort(np.sqrt(np.clip(ev, 0.0, None)))[::-1]
            expected = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
            assert sl.concurrence(rho) == pytest.approx(expected, abs=1e-10)


class TestConvexRoof:
    def test_isometry_is_leading_columns_of_expm(self):
        # the decomposition chart against scipy's matrix exponential, with
        # parameters far outside one period so roundoff has room to grow;
        # the last rows are discord's basis chart: zero diagonal, all columns
        from scipy.linalg import expm

        rng = np.random.default_rng(13)
        cases = [(m, r, False) for m in (1, 2, 3, 4, 5) for r in range(1, m + 1)]
        for m, r, zero_diagonal in cases + [(3, 3, True), (4, 4, True)]:
            params = rng.uniform(-50.0, 50.0, m * m)
            if zero_diagonal:
                params[:m] = 0.0
            h = sl.qcorr._hermitian_from_params(m, params)
            np.testing.assert_array_equal(h, h.conj().T)
            np.testing.assert_array_equal(np.diag(h).real, params[:m])
            if m > 1:  # (re, im) of pair (0, 1) follow the diagonal
                assert h[0, 1] == complex(params[m], params[m + 1])
            iso = sl.qcorr._exp_chart(m, r, params)[0]
            np.testing.assert_allclose(iso.conj().T @ iso, np.eye(r), atol=1e-12)
            np.testing.assert_allclose(iso, expm(1j * h)[:, :r], atol=1e-9)
            if zero_diagonal:
                np.testing.assert_array_equal(sl.qcorr._basis_chart(m, params[m:])[0], iso)

    def test_pure_input_is_exact(self):
        psi = sl.random_pure([2, 2], seed=10)
        rho = psi.to_density()
        expected = sl.von_neumann_entropy(sl.partial_trace(rho, {0}))
        roof = sl.eof_convex_roof(rho, config=sl.OptimizerConfig(restarts=2, seed=1))
        assert roof == pytest.approx(expected, abs=1e-9)

    def test_rank2_against_wootters(self):
        worst = 0.0
        for seed in range(20):
            rho = sl.random_density([2, 2], rank=2, seed=seed)
            diff = abs(
                sl.eof_two_qubit(rho)
                - sl.eof_convex_roof(
                    rho, config=sl.OptimizerConfig(restarts=3, max_evals=800, seed=seed)
                )
            )
            worst = max(worst, diff)
        assert worst <= 1e-4

    def test_separable_diagonal(self):
        rho = sl.validate_density(np.diag([0.4, 0.3, 0.2, 0.1]), [2, 2])
        roof = sl.eof_convex_roof(rho, config=sl.OptimizerConfig(restarts=6, seed=2))
        assert roof <= 1e-6

    def test_monotone_in_restarts(self):
        rho = sl.random_density([2, 2], rank=2, seed=31)
        few = sl.eof_convex_roof(rho, config=sl.OptimizerConfig(restarts=2, seed=5))
        many = sl.eof_convex_roof(rho, config=sl.OptimizerConfig(restarts=8, seed=5))
        assert many <= few + 1e-12

    def test_upper_bound_property(self):
        for seed in range(5):
            rho = sl.random_density([2, 2], rank=2, seed=40 + seed)
            roof = sl.eof_convex_roof(
                rho, config=sl.OptimizerConfig(restarts=3, max_evals=800, seed=seed)
            )
            assert roof >= sl.eof_two_qubit(rho) - 1e-4

    def test_capability_and_config_errors(self):
        with pytest.raises(CapabilityError):
            sl.eof_convex_roof(sl.random_density([3, 6], seed=1))


class TestDiscordViaKW:
    def test_ghz(self):
        val = sl.discord_via_kw(ghz_state(), measured=1)
        assert val >= -1e-9
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_product_pure(self):
        psi = tensor_pure(
            sl.random_pure([2], seed=1),
            sl.random_pure([2], seed=2),
            sl.random_pure([2], seed=3),
        )
        assert sl.discord_via_kw(psi, measured=1) == pytest.approx(0.0, abs=1e-9)
        assert sl.discord_via_kw(psi, measured=2) == pytest.approx(0.0, abs=1e-9)

    def test_agreement_with_direct_optimization(self):
        cfg = sl.OptimizerConfig(restarts=10, seed=13)
        worst = 0.0
        for seed in range(200):
            psi = sl.random_pure([2, 2, 2], seed=2000 + seed)
            via_kw = sl.discord_via_kw(psi, measured=1)
            rho_ab = sl.partial_trace(psi.to_density(), {0, 1})
            direct = sl.discord(rho_ab, 1, cfg).discord
            worst = max(worst, abs(via_kw - direct))
        assert worst <= 1e-4

    def test_complement_must_be_two_qubit(self):
        psi = sl.random_pure([2, 2, 3], seed=4)
        with pytest.raises(CapabilityError):
            sl.discord_via_kw(psi, measured=1)  # complement (A, C) is 2x3


class TestKWGap:
    def test_pure_states_saturate(self):
        for seed in range(20):
            psi = sl.random_pure([2, 2, 2], seed=600 + seed)
            report = sl.kw_gap(
                psi.to_density(), sl.OptimizerConfig(restarts=10, seed=seed)
            )
            assert abs(report.gap) <= 1e-4

    def test_a_factorized_reduces_to_zeros(self):
        # A pure and factorized: 0 = 0 + 0
        psi_a = sl.random_pure([2], seed=5)
        rho = sl.tensor_density(psi_a.to_density(), sl.random_density([2, 2], seed=6))
        rho = sl.DensityMatrix((2, 2, 2), rho.data)
        report = sl.kw_gap(rho, sl.OptimizerConfig(restarts=6, seed=1))
        assert report.eof_ab == pytest.approx(0.0, abs=1e-8)
        assert report.discord_ac == pytest.approx(0.0, abs=1e-6)
        assert report.cond_entropy_ac == pytest.approx(0.0, abs=1e-9)
        assert abs(report.gap) <= 1e-6

    def test_random_states_nonnegative(self):
        for seed in range(50):
            rho = sl.random_density([2, 2, 2], seed=700 + seed)
            report = sl.kw_gap(rho, sl.OptimizerConfig(restarts=6, seed=seed))
            assert report.gap >= -1e-4

    def test_capability_errors(self):
        with pytest.raises(CapabilityError):
            sl.kw_gap(sl.random_density([3, 2, 2], seed=1))
        with pytest.raises(CapabilityError):
            sl.kw_gap(sl.random_density([2, 2, 9], seed=1))


class TestTheoremOneAudit:
    def test_ab_pure_block(self):
        # |psi_AB><psi_AB| (x) rho_C: E(AB~) = E(AB) = S(A); discords toward
        # C and C~ vanish; all four lines equal the (zero) gap
        psi_ab = sl.random_pure([2, 2], seed=21)
        rho_c = sl.random_density([2], rank=2, seed=22)
        rho = sl.DensityMatrix((2, 2, 2), sl.tensor_density(psi_ab.to_density(), rho_c).data)
        audit = sl.theorem1_audit(rho, sl.OptimizerConfig(restarts=6, seed=2))
        s_a = sl.von_neumann_entropy(sl.partial_trace(rho, {0}))
        assert audit.eof_ab == pytest.approx(s_a, abs=1e-6)
        assert audit.eof_ab_ext == pytest.approx(s_a, abs=1e-4)
        assert audit.discord_c == pytest.approx(0.0, abs=1e-6)
        assert audit.discord_c_ext == pytest.approx(0.0, abs=1e-6)
        assert audit.t_a == pytest.approx(0.0, abs=1e-9)
        for line in (audit.line1, audit.line2, audit.line3, audit.line4):
            assert abs(line) <= 5e-4

    def test_a_factorized_block(self):
        psi_a = sl.random_pure([2], seed=23)
        rho = sl.DensityMatrix(
            (2, 2, 2),
            sl.tensor_density(psi_a.to_density(), sl.random_density([2, 2], rank=2, seed=24)).data,
        )
        audit = sl.theorem1_audit(rho, sl.OptimizerConfig(restarts=6, seed=3))
        for value in (
            audit.eof_ab,
            audit.eof_ac,
            audit.eof_ab_ext,
            audit.eof_ac_ext,
            audit.discord_b,
            audit.discord_c,
            audit.discord_b_ext,
            audit.discord_c_ext,
        ):
            assert abs(value) <= 1e-4
        assert audit.t_a == pytest.approx(0.0, abs=1e-9)

    def test_random_rank2_line4(self):
        for seed in (77, 78):
            rho = sl.random_density([2, 2, 2], rank=2, seed=seed)
            audit = sl.theorem1_audit(
                rho, sl.OptimizerConfig(restarts=6, max_evals=1500, seed=seed)
            )
            assert abs(audit.line4 - audit.t_a) <= 5e-4
            assert audit.delta_e_b >= -5e-4
            assert audit.delta_e_c >= -5e-4

    def test_known_local_minimum_state(self):
        # regression case: a local minimum of one of its 2x4 discords put
        # |line4 - gap| at 2.6e-3 at these settings
        rho = sl.random_density([2, 2, 2], rank=2, seed=822092367)
        audit = sl.theorem1_audit(
            rho, sl.OptimizerConfig(restarts=4, max_evals=1000, seed=822092367)
        )
        assert abs(audit.line4 - sl.t_gap(rho).t_a) <= 5e-4

    def test_rank_counted_at_the_purification_cutoff(self):
        # a third eigenvalue near 2e-10 gives the purification a third
        # ancilla level, so the state is outside the rank <= 2 envelope
        rank2 = sl.random_density([2, 2, 2], rank=2, seed=3).data
        pure = sl.random_pure([2, 2, 2], seed=99).to_density().data
        rho = sl.validate_density(0.9999999995 * rank2 + 5e-10 * pure, [2, 2, 2])
        assert sl.purify(rho).d_e == 3
        with pytest.raises(CapabilityError):
            sl.theorem1_audit(rho, sl.OptimizerConfig(restarts=2, seed=1))

    def test_envelope_errors(self):
        with pytest.raises(CapabilityError):
            sl.theorem1_audit(sl.random_density([2, 2, 2], rank=4, seed=1))
        with pytest.raises(CapabilityError):
            sl.theorem1_audit(sl.random_density([2, 2, 3], rank=2, seed=1))


class TestConservation:
    def test_ghz(self):
        lhs, rhs = sl.conservation_check(ghz_state(), sl.OptimizerConfig(restarts=6, seed=1))
        assert lhs == pytest.approx(0.0, abs=1e-8)
        assert rhs == pytest.approx(0.0, abs=1e-6)

    def test_w_state(self):
        lhs, rhs = sl.conservation_check(w_state(), sl.OptimizerConfig(restarts=20, seed=2))
        assert abs(lhs - rhs) <= 2e-4
        assert lhs > 1.0  # W state carries nontrivial pairwise entanglement

    def test_product_pure(self):
        psi = tensor_pure(
            sl.random_pure([2], seed=4),
            sl.random_pure([2], seed=5),
            sl.random_pure([2], seed=6),
        )
        lhs, rhs = sl.conservation_check(psi, sl.OptimizerConfig(restarts=4, seed=3))
        assert lhs == pytest.approx(0.0, abs=1e-9)
        assert rhs == pytest.approx(0.0, abs=1e-7)

    def test_needs_three_qubits(self):
        with pytest.raises(CapabilityError):
            sl.conservation_check(sl.random_pure([2, 2, 3], seed=1))
