import io
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ssa_lab as sl
from ssa_lab.errors import ConfigError, DimensionError, ValidationError
from ssa_lab.entropy import _GAP_LEGS, _entropies

from conftest import min_eig_partial_transpose, random_two_block_params, reference_states


class TestParams:
    def test_defaults_are_symmetric(self):
        p = sl.DEFAULT_PARAMS
        assert p.p1 == p.lambda2 == 0.5
        assert p.alpha1 == pytest.approx(1 / math.sqrt(2))
        assert p.b == pytest.approx(1 / math.sqrt(2))

    def test_derived_fields_normalized(self):
        p = sl.TwoBlockParams(alpha1=0.3, beta2=0.8, b=0.6)
        assert p.alpha1**2 + p.beta1**2 == pytest.approx(1.0, abs=1e-12)
        assert p.alpha2**2 + p.beta2**2 == pytest.approx(1.0, abs=1e-12)
        assert p.a**2 + p.b**2 == pytest.approx(1.0, abs=1e-12)

    def test_gamma(self):
        p = sl.TwoBlockParams(lambda1=0.25, b=0.5, beta2=0.4)
        assert p.gamma == pytest.approx(0.5 * 0.5 * 0.4)

    def test_validation(self):
        with pytest.raises(ValidationError):
            sl.TwoBlockParams(p1=0.0)
        with pytest.raises(ValidationError):
            sl.TwoBlockParams(beta2=1.5)


class TestState:
    def test_valid_density_on_244(self, rng):
        # the builder's guarantee: states come out valid by construction, so
        # validate_density, run here and not in the builder, has nothing to fix
        params = [sl.DEFAULT_PARAMS] + [random_two_block_params(rng) for _ in range(50)]
        for name in ("alpha1", "beta2", "b", "lambda1", "lambda2"):
            params += [replace(sl.DEFAULT_PARAMS, **{name: edge}) for edge in (0.0, 1.0)]
        params += [replace(sl.DEFAULT_PARAMS, p1=p1) for p1 in (1e-12, 1.0 - 1e-12)]
        for p in params:
            for rho in [sl.two_block_state(p)] + [n.state for n in reference_states(p)]:
                assert rho.dims == (2, 4, 4)
                np.testing.assert_array_equal(rho.data, rho.data.conj().T)
                assert abs(np.trace(rho.data) - 1.0) <= 1e-14
                assert np.linalg.eigvalsh(rho.data).min() >= -1e-14
                cleaned = sl.validate_density(rho.data, rho.dims)
                assert np.max(np.abs(cleaned.data - rho.data)) <= 1e-14

    def test_rank_four_at_default_point(self):
        rho = sl.two_block_state(sl.DEFAULT_PARAMS)
        w = np.linalg.eigvalsh(rho.data)
        assert (w > 1e-12).sum() == 4

    def test_zero_gap_when_beta2_vanishes(self):
        rho = sl.two_block_state(sl.TwoBlockParams(beta2=0.0))
        assert sl.t_gap(rho).t_a <= 1e-10

    def test_zero_gap_when_lambda1_vanishes(self):
        rho = sl.two_block_state(sl.TwoBlockParams(lambda1=0.0))
        assert sl.t_gap(rho).t_a <= 1e-10

    def test_marginals_entrywise(self):
        # hand-built AB and AC marginals of the mixture
        p = sl.TwoBlockParams(p1=0.37, alpha1=0.6, beta2=0.45, b=0.7, lambda1=0.3, lambda2=0.65)
        rho = sl.two_block_state(p)
        psi1 = np.array([p.alpha1, p.beta1])
        phi_b = np.array([0.0, p.a, p.b, 0.0])
        psi2 = p.alpha2 * np.kron([1, 0], [1.0, 0, 0, 0]) + p.beta2 * np.kron([0, 1], phi_b)
        rho1_b = np.diag([0.0, 0.0, p.lambda1, 1 - p.lambda1])
        rho1_c = np.diag([0.0, 0.0, p.lambda1, 1 - p.lambda1])
        rho2_c = np.diag([p.lambda2, 1 - p.lambda2, 0.0, 0.0])
        sigma2_a = np.diag([p.alpha2**2, p.beta2**2])
        rho_ab_expected = p.p1 * np.kron(np.outer(psi1, psi1), rho1_b) + p.p2 * np.outer(
            psi2, psi2
        )
        rho_ac_expected = p.p1 * np.kron(np.outer(psi1, psi1), rho1_c) + p.p2 * np.kron(
            sigma2_a, rho2_c
        )
        np.testing.assert_allclose(
            sl.partial_trace(rho, {0, 1}).data, rho_ab_expected, atol=1e-12
        )
        np.testing.assert_allclose(
            sl.partial_trace(rho, {0, 2}).data, rho_ac_expected, atol=1e-12
        )

    def test_matches_kron_of_defining_kets(self, rng):
        # oracle: the blocks as Kronecker products of one-hot kets; the
        # root's columns are the same weighted products, exactly, and the
        # state G G^T their mixture, to rounding
        def ket(dim, index):
            return np.eye(dim)[index]

        for _ in range(20):
            p = random_two_block_params(rng)
            psi1_a = p.alpha1 * ket(2, 0) + p.beta1 * ket(2, 1)
            phi_b = p.a * ket(4, 1) + p.b * ket(4, 2)
            psi2_ab = p.alpha2 * np.kron(ket(2, 0), ket(4, 0)) + p.beta2 * np.kron(ket(2, 1), phi_b)
            columns = [
                np.sqrt(p.p1 * p.lambda1) * np.kron(psi1_a, np.kron(ket(4, 2), ket(4, 2))),
                np.sqrt(p.p1 * (1.0 - p.lambda1)) * np.kron(psi1_a, np.kron(ket(4, 3), ket(4, 3))),
                np.sqrt(p.p2 * p.lambda2) * np.kron(psi2_ab, ket(4, 0)),
                np.sqrt(p.p2 * (1.0 - p.lambda2)) * np.kron(psi2_ab, ket(4, 1)),
            ]
            np.testing.assert_array_equal(sl.twoblock._root(p), np.stack(columns, axis=1))
            rho1_bc = p.lambda1 * np.diag(np.kron(ket(4, 2), ket(4, 2))) + (
                1.0 - p.lambda1
            ) * np.diag(np.kron(ket(4, 3), ket(4, 3)))
            rho2_c = np.diag([p.lambda2, 1.0 - p.lambda2, 0.0, 0.0])
            data = p.p1 * np.kron(np.outer(psi1_a, psi1_a), rho1_bc) + p.p2 * np.kron(
                np.outer(psi2_ab, psi2_ab), rho2_c
            )
            np.testing.assert_allclose(sl.two_block_state(p).data, data, rtol=0, atol=1e-15)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            sl.two_block_state(sl.TwoBlockParams(lambda1=1.2))

    def test_sweep_row_is_not_one_state(self):
        row = replace(sl.DEFAULT_PARAMS, beta2=np.linspace(0.0, 1.0, 3))
        with pytest.raises(DimensionError):
            sl.two_block_state(row)


class TestClosedForm:
    def test_zero_on_gamma_locus(self):
        for params in (
            sl.TwoBlockParams(beta2=0.0),
            sl.TwoBlockParams(lambda1=0.0),
            sl.TwoBlockParams(b=0.0),
            sl.TwoBlockParams(beta2=0.0, lambda1=0.0, b=0.0),
        ):
            assert abs(sl.gap_closed_form(params)) <= 1e-12

    def test_matches_entropic_definition_at_default(self):
        params = sl.DEFAULT_PARAMS
        closed = sl.gap_closed_form(params)
        numeric = sl.t_gap(sl.two_block_state(params)).t_a
        assert closed == pytest.approx(numeric, abs=1e-8)
        assert closed > 0.1

    def test_matches_entropic_definition_random(self, rng):
        for _ in range(50):
            params = random_two_block_params(rng)
            closed = sl.gap_closed_form(params)
            numeric = sl.t_gap(sl.two_block_state(params)).t_a
            assert abs(closed - numeric) <= 1e-8

    def test_mu_values_are_marginal_eigenvalues(self):
        # mu2/mu4 are the nontrivial eigenvalues of the B marginal
        p = sl.TwoBlockParams(p1=0.37, alpha1=0.6, beta2=0.45, b=0.7, lambda1=0.3, lambda2=0.65)
        rho_b = sl.partial_trace(sl.two_block_state(p), {1})
        w = np.linalg.eigvalsh(rho_b.data)
        _, mu2, _, mu4 = sl.gap_mu_values(p)
        known = {p.p1 * (1 - p.lambda1), p.p2 * p.alpha2**2}
        rest = sorted(
            float(x) for x in w if all(abs(x - k) > 1e-9 for k in known)
        )
        np.testing.assert_allclose(rest, sorted([mu2, mu4]), atol=1e-9)

    def test_zero_locus_both_directions(self, rng):
        for _ in range(300):
            params = random_two_block_params(rng)
            gap = sl.gap_closed_form(params)
            if params.gamma <= 1e-12:
                assert gap <= 1e-10
            else:
                # the chart makes gamma generically far from the locus here
                if params.gamma > 1e-4:
                    assert gap > 1e-10


# a parameter in [0, 1] with both edges drawn as such
_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestRootedFamily:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        p1=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        rest=st.tuples(*[_UNIT] * 5),
    )
    def test_state_and_sweep_cell_match_closed_form(self, p1, rest):
        # over the whole box: the rooted state through t_gap, and the same
        # point as a one-cell block of the sweep's real root stack
        p = sl.TwoBlockParams(p1, *rest)
        closed = sl.gap_closed_form(p)
        assert abs(sl.t_gap(sl.two_block_state(p)).t_a - closed) <= 1e-9
        cell_closed, cell_numeric = sl.twoblock._block_gaps(replace(p, beta2=np.array([[p.beta2]])))
        assert cell_closed.shape == cell_numeric.shape == (1, 1)
        assert abs(cell_closed[0, 0] - closed) <= 1e-9
        assert abs(cell_numeric[0, 0] - closed) <= 1e-9


class TestReferenceStates:
    def test_expected_gaps(self):
        fixtures = reference_states()
        by_name = {f.name: f for f in fixtures}
        assert set(by_name) == {
            "a_factorized_block",
            "ab_pure_block",
            "maximally_mixed_a",
        }
        for fixture in fixtures:
            assert sl.t_gap(fixture.state).t_a == pytest.approx(
                fixture.expected_gap, abs=1e-9
            )

    def test_ab_pure_block_entanglement(self):
        # the AB-pure block's entanglement equals the local entropy of A
        fixture = {f.name: f for f in reference_states()}["ab_pure_block"]
        rho_ab = sl.partial_trace(fixture.state, {0, 1})
        s_a = sl.von_neumann_entropy(sl.partial_trace(fixture.state, {0}))
        roof = sl.eof_convex_roof(
            rho_ab, config=sl.OptimizerConfig(restarts=4, max_evals=800, seed=3)
        )
        assert roof == pytest.approx(s_a, abs=1e-4)


class TestSeparableAC:
    def test_ac_marginal_uncorrelated(self, rng):
        # the AC marginal is separable with orthogonal C blocks at every
        # parameter point: zero discord and a positive partial transpose
        for _ in range(5):
            params = random_two_block_params(rng)
            rho_ac = sl.partial_trace(sl.two_block_state(params), {0, 2})
            result = sl.discord(rho_ac, 1, sl.OptimizerConfig(restarts=8, seed=11))
            assert abs(result.discord) <= 1e-6
            assert min_eig_partial_transpose(rho_ac) >= -1e-10


class TestSweep:
    def test_edges_and_interior_figure_a(self):
        grid = sl.sweep_figure("a", steps=16)
        assert np.max(np.abs(grid.closed_form[0, :])) <= 1e-10  # beta2 = 0 edge
        assert np.max(np.abs(grid.closed_form[:, 0])) <= 1e-10  # lambda1 = 0 edge
        assert sl.gap_closed_form(sl.DEFAULT_PARAMS) > 1e-4
        assert np.max(np.abs(grid.closed_form - grid.numeric)) <= 1e-8

    def test_edges_figure_b(self):
        grid = sl.sweep_figure("b", steps=16)
        assert np.max(np.abs(grid.closed_form[0, :])) <= 1e-10  # beta2 = 0 edge
        assert np.max(np.abs(grid.closed_form[:, 0])) <= 1e-10  # b = 0 edge

    def test_csv_contract(self):
        grid = sl.sweep_figure("a", steps=8)
        buf = io.StringIO()
        grid.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "param1,param2,t_closed,t_numeric"
        assert len(lines) == 1 + 64
        first = lines[1].split(",")
        assert len(first) == 4
        assert float(first[0]) == 0.0
        # row-major: the second row advances the fast axis
        second = lines[2].split(",")
        assert float(second[0]) == 0.0 and float(second[1]) > 0.0

    def test_cells_match_per_state_pipeline(self):
        fixed = sl.TwoBlockParams(p1=0.3, alpha1=0.8, lambda2=0.2)
        axis1, axis2 = sl.SweepAxis("b", steps=4), sl.SweepAxis("beta2", steps=5)
        grid = sl.sweep_gap(axis1, axis2, fixed)
        for i, x1 in enumerate(axis1.values()):
            for j, x2 in enumerate(axis2.values()):
                params = replace(fixed, b=float(x1), beta2=float(x2))
                numeric = sl.t_gap(sl.two_block_state(params)).t_a
                assert abs(grid.numeric[i, j] - numeric) <= 1e-12
                assert abs(grid.closed_form[i, j] - sl.gap_closed_form(params)) <= 1e-12

    @pytest.mark.parametrize("figure", ["a", "b"])
    def test_figure_cells_match_per_state_pipeline(self, figure):
        # the real row stacks and the one-call closed form at figure scale,
        # against the complex one-state path; row 0 is the beta2 = 0 edge,
        # column 0 the lambda1 = 0 (figure a) or b = 0 (figure b) edge
        grid = sl.sweep_figure(figure, steps=64)
        v1, v2 = grid.axis1.values(), grid.axis2.values()
        cells = [(0, 0), (0, 21), (0, 42), (0, 63), (21, 0), (42, 0), (63, 0), (63, 63)]
        cells += [tuple(c) for c in np.random.default_rng(64).integers(1, 64, size=(24, 2))]
        for i, j in cells:
            params = replace(
                grid.fixed, **{grid.axis1.name: float(v1[i]), grid.axis2.name: float(v2[j])}
            )
            numeric = sl.t_gap(sl.two_block_state(params)).t_a
            assert abs(grid.numeric[i, j] - numeric) <= 1e-14
            assert abs(grid.closed_form[i, j] - sl.gap_closed_form(params)) <= 1e-14

    @pytest.mark.parametrize("steps1, steps2", [(13, 64), (3, 600)])
    def test_row_blocks_match_row_by_row(self, steps1, steps2):
        # oracle: one _root stack and one stacked root-reader call per row.
        # At 13 x 64 the last block of rows is short; at 3 x 600 a row holds
        # more than CELLS cells, so each block is one row
        rows = max(1, sl.twoblock.CELLS // steps2)
        assert rows == 1 or steps1 % rows
        fixed = sl.TwoBlockParams(p1=0.3, alpha1=0.8, lambda2=0.2)
        axis1, axis2 = sl.SweepAxis("b", steps=steps1), sl.SweepAxis("lambda1", steps=steps2)
        grid = sl.sweep_gap(axis1, axis2, fixed)
        for i, x1 in enumerate(axis1.values()):
            row = replace(fixed, b=float(x1), lambda1=axis2.values())
            stack = sl.twoblock._root(row)
            s_ab, s_ac, s_b, s_c = _entropies((2, 4, 4), _GAP_LEGS, root=stack)
            np.testing.assert_array_equal(grid.numeric[i], s_ab + s_ac - s_b - s_c)

    def test_every_cell_matches_its_own_state(self):
        # every cell of a 13 x 64 sweep, whose last block of rows is short,
        # against t_gap of the complex rooted state of its own parameters
        fixed = sl.TwoBlockParams(p1=0.3, alpha1=0.8, lambda2=0.2)
        axis1, axis2 = sl.SweepAxis("beta2", steps=13), sl.SweepAxis("lambda1", steps=64)
        grid = sl.sweep_gap(axis1, axis2, fixed)
        for i, x1 in enumerate(axis1.values()):
            for j, x2 in enumerate(axis2.values()):
                params = replace(fixed, beta2=float(x1), lambda1=float(x2))
                numeric = sl.t_gap(sl.two_block_state(params)).t_a
                assert abs(grid.numeric[i, j] - numeric) <= 1e-14

    @pytest.mark.parametrize("steps, bound_mb", [(64, 2.5), (256, 4.0)])
    def test_memory_bound(self, steps, bound_mb):
        # a block of CELLS roots takes 0.5 MB; the grids themselves take
        # 2 x 8 steps^2 bytes (1 MB at 256 steps)
        sl.sweep_figure("a", 4)
        tracemalloc.start()
        try:
            sl.sweep_figure("a", steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 1e6

    def test_custom_axes(self):
        grid = sl.sweep_gap(
            sl.SweepAxis("lambda1", steps=5), sl.SweepAxis("b", steps=5)
        )
        assert grid.closed_form.shape == (5, 5)

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            sl.SweepAxis("alpha1")
        with pytest.raises(ConfigError):
            sl.SweepAxis("beta2", steps=1)
        with pytest.raises(ConfigError):
            sl.sweep_gap(sl.SweepAxis("beta2"), sl.SweepAxis("beta2"))
        with pytest.raises(ConfigError):
            sl.sweep_figure("c")
