import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ssa_lab as sl
from ssa_lab.entropy import entropy_of_spectrum
from ssa_lab.errors import DimensionError, ValidationError

from conftest import haar_unitary, random_two_block_params


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

    def test_pure_states_never_negative(self):
        # a pure state's top eigenvalue can round to 1 + eps, whose
        # -x log2 x term is negative
        for dims in ([2], [4], [2, 2], [2, 2, 2], [3, 3], [2, 4, 4]):
            for seed in range(200):
                psi = sl.random_pure(dims, seed=seed)
                assert sl.von_neumann_entropy(psi.to_density()) >= 0.0
        value = float(entropy_of_spectrum(np.array([1.0 + 2.2e-16, 1e-17])))
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

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(
        dims=st.sampled_from([(2, 2, 2), (2, 3, 2), (2, 4, 4)]),
        rank=st.sampled_from([None, 2, 3]),
        state_seed=st.integers(0, 2**32 - 1),
        rotation_seed=st.integers(0, 2**32 - 1),
    )
    def test_local_unitary_invariance(self, dims, rank, state_seed, rotation_seed):
        # every entropy in the gap is of a marginal, and U_A x U_B x U_C
        # only rotates each marginal's eigenbasis
        rho = sl.random_density(list(dims), rank=rank, seed=state_seed)
        rng = np.random.default_rng(rotation_seed)
        u = functools.reduce(np.kron, [haar_unitary(d, rng) for d in dims])
        rotated = sl.DensityMatrix(dims, u @ rho.data @ u.conj().T)
        assert abs(sl.t_gap(rotated).t_a - sl.t_gap(rho).t_a) <= 1e-10


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


class TestEnsemble:
    def test_ensemble_validation(self):
        rho = sl.random_density([2], seed=1)
        with pytest.raises(ValidationError):
            sl.Ensemble([0.7, 0.7], [rho, rho])
        with pytest.raises(ValidationError):
            sl.Ensemble([1.0], [rho, sl.random_density([2], seed=2)])
        with pytest.raises(ValidationError):
            sl.Ensemble([0.5, 0.5], [rho, sl.random_density([3], seed=2)])

    def test_nan_weight_rejected(self):
        rho = sl.random_density([2], seed=1)
        with pytest.raises(ValidationError, match="weights"):
            sl.Ensemble([float("nan"), 0.5], [rho, rho])


class TestConcavity:
    def test_single_member(self):
        rho = sl.random_density([2, 2, 2], seed=1)
        lhs, rhs = sl.concavity_check(sl.Ensemble([1.0], [rho]))
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
            lhs, rhs = sl.concavity_check(sl.Ensemble([w, 1 - w], members))
            assert rhs > 1e-3  # generic members carry a real gap
            assert abs(lhs - rhs) <= 1e-9

    def test_concave_on_random_ensembles(self, rng):
        for _ in range(100):
            members = [sl.random_density([2, 2, 2], seed=rng) for _ in range(2)]
            w = float(rng.uniform(0.1, 0.9))
            lhs, rhs = sl.concavity_check(sl.Ensemble([w, 1 - w], members))
            assert lhs >= rhs - 1e-9

    def test_arity_error(self):
        e = sl.Ensemble([1.0], [sl.random_density([2, 2], seed=1)])
        with pytest.raises(DimensionError):
            sl.concavity_check(e)


def _plain(rho, keep):
    """S of the reduced state on ``keep``, through a DensityMatrix of its own."""
    return sl.von_neumann_entropy(sl.partial_trace(rho, keep))


def _matrix_states(folder):
    """States that hold a matrix and no root: full-rank tripartite states,
    two-block states and validated file states (a rank-2 state written to
    ``folder`` and read back through ``validate_density``)."""
    states = [
        sl.random_density(dims, seed=80 + k)
        for k, dims in enumerate([(2, 2, 2), (2, 3, 4), (4, 4, 4)])
    ]
    rng = np.random.default_rng(81)
    states += [sl.two_block_state(random_two_block_params(rng)) for _ in range(3)]
    for k, dims in enumerate([(2, 2, 2), (2, 3, 4)]):
        path = str(folder / f"state{k}.json")
        sl.save_state(path, sl.random_density(dims, rank=2, seed=82))
        states.append(sl.load_density(path))
    assert all(rho._root is None for rho in states)
    return states


def _rooted_states(dims):
    """A rooted state on ``dims`` at every rank below the side."""
    states = [sl.random_density(dims, rank=r, seed=83 + r) for r in range(1, math.prod(dims))]
    assert all(rho._root is not None and rho._data is None for rho in states)
    return states


class TestOneReader:
    def test_matrix_states_read_every_marginal_as_partial_trace_does(self, tmp_path):
        # bit for bit: each entropy is the von Neumann entropy of the
        # marginal partial_trace builds, the whole state's included
        for rho in _matrix_states(tmp_path):
            report = sl.t_gap(rho)
            for name, keep in zip(("s_ab", "s_ac", "s_b", "s_c"), ({0, 1}, {0, 2}, {1}, {2})):
                assert report.components[name] == _plain(rho, keep)
            assert report.t_a == report.s_ab + report.s_ac - report.s_b - report.s_c
            hermitian = (rho.data + rho.data.conj().T) / 2.0
            s_abc = float(entropy_of_spectrum(np.linalg.eigvalsh(hermitian)))
            assert sl.von_neumann_entropy(rho) == s_abc
            expected = _plain(rho, {0, 2}) + _plain(rho, {1, 2}) - s_abc - _plain(rho, {2})
            assert sl.ssa_gap_form1(rho) == expected
            rho_ab = sl.partial_trace(rho, {0, 1})
            s_ab = sl.von_neumann_entropy(rho_ab)
            s_a, s_b = _plain(rho_ab, {0}), _plain(rho_ab, {1})
            assert sl.mutual_information(rho_ab) == s_a + s_b - s_ab
            assert sl.conditional_entropy(rho_ab, 0) == s_ab - s_a
            assert sl.conditional_entropy(rho_ab, 1) == s_ab - s_b

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (2, 2, 4)])
    def test_rooted_tripartite_states_stay_rooted(self, dims):
        for rho in _rooted_states(dims):
            report, form1 = sl.t_gap(rho), sl.ssa_gap_form1(rho)
            entropy = sl.von_neumann_entropy(rho)
            assert rho._data is None
            plain = sl.DensityMatrix(rho.dims, rho.data)
            expected = sl.t_gap(plain)
            for name, value in report.components.items():
                assert abs(value - expected.components[name]) <= 1e-12
            assert abs(report.t_a - expected.t_a) <= 1e-12
            assert abs(form1 - sl.ssa_gap_form1(plain)) <= 1e-12
            assert abs(entropy - sl.von_neumann_entropy(plain)) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 4)])
    def test_rooted_pairs_stay_rooted(self, dims):
        for rho in _rooted_states(dims):
            mi = sl.mutual_information(rho)
            ce = [sl.conditional_entropy(rho, side) for side in (0, 1)]
            assert rho._data is None
            plain = sl.DensityMatrix(rho.dims, rho.data)
            assert abs(mi - sl.mutual_information(plain)) <= 1e-12
            for side in (0, 1):
                assert abs(ce[side] - sl.conditional_entropy(plain, side)) <= 1e-12
