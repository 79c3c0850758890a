import math

import numpy as np
import pytest

import ssa_lab as sl
from ssa_lab.entropy import entropy_of_spectrum
from ssa_lab.errors import DimensionError, ValidationError


class TestVonNeumannEntropy:
    def test_maximally_mixed_qubit(self):
        rho = sl.validate_density(np.eye(2) / 2, [2])
        assert sl.von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state(self):
        psi = sl.random_pure([2, 2], seed=3)
        assert sl.von_neumann_entropy(psi.to_density()) == pytest.approx(0.0, abs=1e-12)

    def test_binary_spectrum_against_scalar_formula(self):
        # independent scalar-arithmetic oracle: h(1/4) = 2 - (3/4) log2 3
        rho = sl.validate_density(np.diag([0.25, 0.75]), [2])
        expected = 2.0 - 0.75 * math.log2(3.0)
        assert sl.von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)
        assert sl.binary_entropy(0.25) == pytest.approx(expected, abs=1e-12)

    def test_range(self):
        for seed in range(10):
            rho = sl.random_density([2, 3], seed=seed)
            s = sl.von_neumann_entropy(rho)
            assert -1e-12 <= s <= math.log2(6) + 1e-9

    def test_rejects_invalid(self):
        bad = sl.DensityMatrix((2,), np.diag([1.5, -0.5]))
        with pytest.raises(ValidationError):
            sl.von_neumann_entropy(bad)

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_nan(self, where):
        # the shape-only constructor lets NaN through; the entropy path must not
        m = np.eye(8, dtype=complex) / 8
        m[where] = np.nan
        bad = sl.DensityMatrix((2, 2, 2), m)
        with pytest.raises(ValidationError, match="finiteness"):
            sl.t_gap(bad)
        with pytest.raises(ValidationError, match="finiteness"):
            sl.von_neumann_entropy(bad)

    def test_pure_spectra_give_positive_zero(self):
        # a record must never print -0.0
        pure = sl.DensityMatrix((2, 2, 2), np.diag([1.0] + [0.0] * 7))
        values = [sl.binary_entropy(0.0), sl.binary_entropy(1.0), sl.von_neumann_entropy(pure)]
        values += list(sl.t_gap(pure).components.values())
        for value in values:
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_stacked_spectra(self):
        spectra = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.25, 0.25, 0.5]])
        out = entropy_of_spectrum(spectra)
        np.testing.assert_allclose(out, [1.0, 0.0, 1.5], atol=1e-15)
        for row, value in zip(spectra, out):
            assert entropy_of_spectrum(row) == value


class TestMutualInformation:
    def test_product_state(self):
        rho = sl.tensor_density(sl.random_density([2], seed=1), sl.random_density([3], seed=2))
        assert sl.mutual_information(rho) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_entangled(self):
        rho = sl.PureStateVector((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2)).to_density()
        assert sl.mutual_information(rho) == pytest.approx(2.0, abs=1e-10)

    def test_bounds_on_random_states(self):
        bound = 2.0 * min(math.log2(2), math.log2(3))
        for seed in range(1000):
            rho = sl.random_density([2, 3], seed=seed)
            mi = sl.mutual_information(rho)
            assert mi >= -1e-9
            assert mi <= bound + 1e-9

    def test_arity_error(self):
        with pytest.raises(DimensionError):
            sl.mutual_information(sl.random_density([2, 2, 2], seed=1))


class TestConditionalEntropy:
    def test_pure_entangled_is_negative(self):
        rho = sl.PureStateVector((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2)).to_density()
        assert sl.conditional_entropy(rho, 1) == pytest.approx(-1.0, abs=1e-10)

    def test_product_state(self):
        rho_a = sl.random_density([2], seed=5)
        rho = sl.tensor_density(rho_a, sl.random_density([2], seed=6))
        expected = sl.von_neumann_entropy(rho_a)
        assert sl.conditional_entropy(rho, 1) == pytest.approx(expected, abs=1e-10)

    def test_recomposition_oracle(self):
        rho = sl.random_density([2, 2], rank=2, seed=17)
        s_ab = sl.von_neumann_entropy(rho)
        s_b = sl.von_neumann_entropy(sl.partial_trace(rho, {1}))
        assert sl.conditional_entropy(rho, 1) == pytest.approx(s_ab - s_b, abs=1e-12)

    def test_bad_subsystem(self):
        with pytest.raises(DimensionError):
            sl.conditional_entropy(sl.random_density([2, 2], seed=1), 2)


class TestTGap:
    def test_pure_states_have_zero_gap(self):
        for seed in range(100):
            psi = sl.random_pure([2, 2, 2], seed=seed)
            report = sl.t_gap(psi.to_density())
            assert abs(report.t_a) <= 1e-9

    def test_maximally_mixed_factorized_a(self):
        for seed in range(5):
            rho_bc = sl.random_density([2, 2], seed=seed)
            rho = sl.tensor_density(sl.validate_density(np.eye(2) / 2, [2]), rho_bc)
            rho = sl.DensityMatrix((2, 2, 2), rho.data)
            assert sl.t_gap(rho).t_a == pytest.approx(2.0, abs=1e-9)

    def test_family_state_matches_closed_form(self):
        params = sl.DEFAULT_PARAMS
        report = sl.t_gap(sl.two_block_state(params))
        assert report.t_a == pytest.approx(sl.gap_closed_form(params), abs=1e-8)

    def test_components_recorded(self):
        report = sl.t_gap(sl.random_density([2, 2, 2], seed=1))
        assert set(report.components) == {"s_ab", "s_ac", "s_b", "s_c"}

    def test_arity_error(self):
        with pytest.raises(DimensionError):
            sl.t_gap(sl.random_density([2, 2], seed=1))


class TestSsaGapForm1:
    def test_triple_product(self):
        rho = sl.tensor_density(
            sl.random_density([2], seed=1),
            sl.random_density([2], seed=2),
            sl.random_density([2], seed=3),
        )
        assert sl.ssa_gap_form1(rho) == pytest.approx(0.0, abs=1e-10)

    def test_trivial_c_recovers_mutual_information(self):
        rho_ab = sl.random_density([2, 3], seed=4)
        rho = sl.DensityMatrix((2, 3, 1), rho_ab.data)
        assert sl.ssa_gap_form1(rho) == pytest.approx(
            sl.mutual_information(rho_ab), abs=1e-10
        )

    def test_nonnegative_on_random_states(self):
        for seed in range(300):
            rho = sl.random_density([2, 2, 2], seed=seed)
            assert sl.ssa_gap_form1(rho) >= -1e-9

    def test_purification_duality(self):
        # For mixed rho_ABC with purification |psi_ABCE>, the marginal-form gap
        # equals the global-form gap of the (A, E, C) reduction.
        for seed in range(20):
            rho = sl.random_density([2, 2, 2], rank=2, seed=seed)
            direct = sl.t_gap(rho).t_a
            psi = sl.purify(rho).psi
            rho_ace = sl.partial_trace(psi.to_density(), {0, 2, 3})  # (A, C, E)
            rho_aec = sl.permute_subsystems(rho_ace, (0, 2, 1))
            assert sl.ssa_gap_form1(rho_aec) == pytest.approx(direct, abs=1e-9)

    def test_arity_error(self):
        with pytest.raises(DimensionError):
            sl.ssa_gap_form1(sl.random_density([2, 2], seed=1))


class TestHolevo:
    def test_orthogonal_pure_members(self):
        e = sl.make_ensemble(
            [0.5, 0.5],
            [
                sl.validate_density(np.diag([1.0, 0.0]), [2]),
                sl.validate_density(np.diag([0.0, 1.0]), [2]),
            ],
        )
        assert sl.holevo_chi(e) == pytest.approx(1.0, abs=1e-10)

    def test_identical_members(self):
        rho = sl.random_density([2], seed=9)
        e = sl.make_ensemble([0.5, 0.5], [rho, rho])
        assert sl.holevo_chi(e) == pytest.approx(0.0, abs=1e-10)

    def test_joint_dominates_marginal(self):
        # chi of an ensemble of bipartite states >= chi of its B-marginals
        rng = np.random.default_rng(7)
        for _ in range(500):
            members = [sl.random_density([2, 2], seed=rng) for _ in range(2)]
            w = float(rng.uniform(0.1, 0.9))
            joint = sl.make_ensemble([w, 1 - w], members)
            margs = sl.make_ensemble(
                [w, 1 - w], [sl.partial_trace(m, {1}) for m in members]
            )
            assert sl.holevo_chi(joint) >= sl.holevo_chi(margs) - 1e-9

    def test_bounded_by_weight_entropy(self):
        rng = np.random.default_rng(8)
        # generic members: strict inequality
        for _ in range(50):
            members = [sl.random_density([2], seed=rng) for _ in range(2)]
            w = float(rng.uniform(0.2, 0.8))
            chi = sl.holevo_chi(sl.make_ensemble([w, 1 - w], members))
            bound = sl.binary_entropy(w)
            assert chi <= bound + 1e-9
            assert chi < bound - 1e-6
        # orthogonal members: equality
        for _ in range(20):
            w = float(rng.uniform(0.2, 0.8))
            a = sl.random_density([2], seed=rng)
            b = sl.random_density([2], seed=rng)
            top = sl.validate_density(
                np.block([[a.data, np.zeros((2, 2))], [np.zeros((2, 2)), np.zeros((2, 2))]]),
                [4],
            )
            bot = sl.validate_density(
                np.block([[np.zeros((2, 2)), np.zeros((2, 2))], [np.zeros((2, 2)), b.data]]),
                [4],
            )
            chi = sl.holevo_chi(sl.make_ensemble([w, 1 - w], [top, bot]))
            assert chi == pytest.approx(sl.binary_entropy(w), abs=1e-9)

    def test_ensemble_validation(self):
        rho = sl.random_density([2], seed=1)
        with pytest.raises(ValidationError):
            sl.make_ensemble([0.7, 0.7], [rho, rho])
        with pytest.raises(ValidationError):
            sl.make_ensemble([1.0], [rho, sl.random_density([2], seed=2)])
        with pytest.raises(ValidationError):
            sl.make_ensemble([0.5, 0.5], [rho, sl.random_density([3], seed=2)])

    def test_nan_weight_rejected(self):
        rho = sl.random_density([2], seed=1)
        with pytest.raises(ValidationError, match="weights"):
            sl.make_ensemble([float("nan"), 0.5], [rho, rho])


class TestConcavity:
    def test_single_member(self):
        rho = sl.random_density([2, 2, 2], seed=1)
        lhs, rhs = sl.concavity_check(sl.make_ensemble([1.0], [rho]))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_orthogonal_marginals_give_equality(self, rng):
        # members with generic nonzero gaps embedded into disjoint B and C
        # sectors, so their B- and C-marginals are mutually orthogonal
        def embedded_member(offset: int, seed) -> sl.DensityMatrix:
            small = sl.random_density([2, 2, 2], seed=seed)
            v = np.zeros((4, 2))
            v[offset : offset + 2] = np.eye(2)
            iso = np.kron(np.eye(2), np.kron(v, v))
            return sl.DensityMatrix((2, 4, 4), iso @ small.data @ iso.T)

        for _ in range(10):
            members = [embedded_member(0, rng), embedded_member(2, rng)]
            w = float(rng.uniform(0.2, 0.8))
            lhs, rhs = sl.concavity_check(sl.make_ensemble([w, 1 - w], members))
            assert rhs > 1e-3  # generic members carry a real gap
            assert abs(lhs - rhs) <= 1e-9

    def test_concave_on_random_ensembles(self, rng):
        for _ in range(100):
            members = [sl.random_density([2, 2, 2], seed=rng) for _ in range(2)]
            w = float(rng.uniform(0.1, 0.9))
            lhs, rhs = sl.concavity_check(sl.make_ensemble([w, 1 - w], members))
            assert lhs >= rhs - 1e-9

    def test_arity_error(self):
        e = sl.make_ensemble([1.0], [sl.random_density([2, 2], seed=1)])
        with pytest.raises(DimensionError):
            sl.concavity_check(e)
