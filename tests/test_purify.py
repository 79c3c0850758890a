import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ssa_lab as sl
from ssa_lab.errors import DimensionError, ValidationError

from conftest import family_spec


class TestPurify:
    def test_maximally_mixed_qubit(self):
        rho = sl.validate_density(np.eye(2) / 2, [2])
        result = sl.purify(rho)
        assert result.d_e == 2
        np.testing.assert_allclose(
            result.psi.amps, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2), atol=1e-12
        )

    def test_pure_input_gets_trivial_ancilla(self):
        psi = sl.random_pure([2, 2], seed=3)
        result = sl.purify(psi.to_density())
        assert result.d_e == 1
        # ancilla factorized: |psi> (x) |0_E>
        np.testing.assert_allclose(
            np.abs(result.psi.amps), np.abs(psi.amps), atol=1e-10
        )

    def test_ancilla_marginal_mirrors_spectrum(self):
        rho = sl.validate_density(np.diag([0.7, 0.3]), [2])
        result = sl.purify(rho)
        marg_e = sl.partial_trace(result.psi.to_density(), {1})
        np.testing.assert_allclose(marg_e.data, np.diag([0.7, 0.3]), atol=1e-12)

    def test_roundtrip_and_rank(self):
        for seed, rank in [(1, 2), (2, 3), (3, 6)]:
            rho = sl.random_density([2, 3], rank=rank, seed=seed)
            result = sl.purify(rho)
            assert result.d_e == rank
            back = sl.partial_trace(result.psi.to_density(), {0, 1})
            assert np.max(np.abs(back.data - rho.data)) <= 1e-9

    def test_marginal_spectrum_duality(self):
        rho = sl.random_density([2, 2], rank=3, seed=8)
        result = sl.purify(rho)
        ancilla = sl.partial_trace(result.psi.to_density(), {2})
        spec_in = np.sort(np.linalg.eigvalsh(rho.data))[::-1][: result.d_e]
        spec_anc = np.sort(np.linalg.eigvalsh(ancilla.data))[::-1]
        np.testing.assert_allclose(spec_anc, spec_in, atol=1e-9)

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "name, dims",
        [
            ("purify", (2, 2)),
            ("extend", (2, 2, 2)),
            ("concurrence", (2, 2)),
            ("eof_two_qubit", (2, 2)),
            ("eof_convex_roof", (2, 2)),
        ],
        ids=["purify", "extend", "concurrence", "eof_two_qubit", "eof_convex_roof"],
    )
    def test_non_finite_state(self, name, dims, bad, where):
        # the shape-only constructor lets NaN and Inf through; every caller
        # of the purification must reject them before eigh sees them
        side = int(np.prod(dims))
        data = np.eye(side, dtype=complex) / side
        data[where] = bad
        with pytest.raises(ValidationError, match="^finiteness"):
            getattr(sl, name)(sl.DensityMatrix(dims, data))

    @pytest.mark.parametrize(
        "name, dims, args",
        [
            ("purify", (2, 2), ()),
            ("extend", (2, 2, 2), ()),
            ("concurrence", (2, 2), ()),
            ("eof_two_qubit", (2, 2), ()),
            ("eof_convex_roof", (2, 2), ()),
            ("discord", (2, 2), (1,)),
            ("classical_correlation_at", (2, 2), (sl.MeasurementBasis.computational(2), 1)),
        ],
        ids=lambda value: value if isinstance(value, str) else "",
    )
    def test_non_positive_state(self, name, dims, args):
        # eigenvalues (0.7, 0.3, -0.05, 0, ...): the kept weights sum to 1,
        # so a purification that dropped the negative one would pass the
        # norm check and describe another state
        spectrum = np.zeros(int(np.prod(dims)))
        spectrum[:3] = 0.7, 0.3, -0.05
        rho = sl.DensityMatrix(dims, np.diag(spectrum).astype(complex))
        with pytest.raises(ValidationError, match="^positivity"):
            getattr(sl, name)(rho, *args)


class TestExtend:
    def test_pure_input(self):
        psi = sl.random_pure([2, 2, 2], seed=5)
        rho = psi.to_density()
        ext = sl.extend(rho)
        assert ext.rho_a_btilde.dims == (2, 2)  # d_e = 1
        rho_ab = sl.partial_trace(rho, {0, 1})
        np.testing.assert_allclose(ext.rho_a_btilde.data, rho_ab.data, atol=1e-10)

    def test_ab_pure_block_factorizes(self):
        # |psi_AB><psi_AB| (x) rho_C extends to |psi_AB><psi_AB| (x) rho_E
        # with rho_E diagonal in the descending spectrum of rho_C
        psi_ab = sl.random_pure([2, 2], seed=6)
        rho_c = sl.random_density([2], rank=2, seed=7)
        rho = sl.tensor_density(psi_ab.to_density(), rho_c)
        rho = sl.DensityMatrix((2, 2, 2), rho.data)
        ext = sl.extend(rho)
        spectrum = np.sort(np.linalg.eigvalsh(rho_c.data))[::-1]
        expected = np.kron(psi_ab.to_density().data, np.diag(spectrum))
        np.testing.assert_allclose(ext.rho_a_btilde.data, expected, atol=1e-10)

    def test_family_extension_has_block_product_form(self):
        # nondegenerate weights pin the ancilla labels: eigenvalues
        # p1*l1=0.42, p2*l2=0.32, p1*(1-l1)=0.18, p2*(1-l2)=0.08 descending,
        # so block 1 owns ancilla sectors {0, 2} and block 2 owns {1, 3}
        params = sl.TwoBlockParams(p1=0.6, lambda1=0.7, lambda2=0.8)
        rho = sl.two_block_state(params)
        ext = sl.extend(rho)
        assert ext.rho_a_btilde.dims == (2, 16)

        psi1 = np.array([params.alpha1, params.beta1])
        phi_b = np.zeros(4)
        phi_b[1], phi_b[2] = params.a, params.b
        psi2 = params.alpha2 * np.kron([1, 0], [1, 0, 0, 0]) + params.beta2 * np.kron(
            [0, 1], phi_b
        )

        def be(b_idx, e_idx):
            v = np.zeros(16)
            v[b_idx * 4 + e_idx] = 1.0
            return v

        rho1_be = params.lambda1 * np.outer(be(2, 0), be(2, 0)) + (
            1 - params.lambda1
        ) * np.outer(be(3, 2), be(3, 2))
        rho2_e = params.lambda2 * np.diag(
            [0, 1, 0, 0]
        ) + (1 - params.lambda2) * np.diag([0, 0, 0, 1.0])
        expected = params.p1 * np.kron(np.outer(psi1, psi1), rho1_be) + params.p2 * np.kron(
            np.outer(psi2, psi2), rho2_e
        )
        np.testing.assert_allclose(ext.rho_a_btilde.data, expected, atol=1e-10)

    def test_traced_ancilla_recovers_marginals(self):
        rho = sl.random_density([2, 2, 2], rank=3, seed=11)
        ext = sl.extend(rho)
        d_e = ext.rho_a_btilde.dims[1] // 2
        abe = sl.DensityMatrix((2, 2, d_e), ext.rho_a_btilde.data)
        ace = sl.DensityMatrix((2, 2, d_e), ext.rho_a_ctilde.data)
        rho_ab = sl.partial_trace(rho, {0, 1})
        rho_ac = sl.partial_trace(rho, {0, 2})
        assert np.max(np.abs(sl.partial_trace(abe, {0, 1}).data - rho_ab.data)) <= 1e-9
        assert np.max(np.abs(sl.partial_trace(ace, {0, 1}).data - rho_ac.data)) <= 1e-9

    def test_complement_entropies(self):
        for seed in range(10):
            rho = sl.random_density([2, 2, 2], rank=2, seed=seed)
            ext = sl.extend(rho)
            s_b = sl.von_neumann_entropy(sl.partial_trace(rho, {1}))
            s_c = sl.von_neumann_entropy(sl.partial_trace(rho, {2}))
            assert sl.von_neumann_entropy(ext.rho_a_btilde) == pytest.approx(
                s_c, abs=1e-9
            )
            assert sl.von_neumann_entropy(ext.rho_a_ctilde) == pytest.approx(
                s_b, abs=1e-9
            )

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(dims=st.tuples(*[st.integers(1, 3)] * 3), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_purification_duality(self, dims, seed, data):
        # S(A, BE) = S(C) and S(A, CE) = S(B) on the pure (A, B, C, E), at any rank
        rank = data.draw(st.integers(1, int(np.prod(dims))), label="rank")
        rho = sl.random_density(dims, rank=rank, seed=seed)
        ext = sl.extend(rho)
        s_b = sl.von_neumann_entropy(sl.partial_trace(rho, {1}))
        s_c = sl.von_neumann_entropy(sl.partial_trace(rho, {2}))
        assert abs(sl.von_neumann_entropy(ext.rho_a_btilde) - s_c) <= 1e-9
        assert abs(sl.von_neumann_entropy(ext.rho_a_ctilde) - s_b) <= 1e-9

    def test_full_rank_duality_without_the_extension_matrices(self):
        # full-rank 4x4x4: both extensions have side 1024 and rank 4; their
        # entropies come from the roots, so no 1024^2 matrix (16 MiB) is formed
        import tracemalloc

        for seed in range(5):
            rho = sl.random_density([4, 4, 4], seed=seed)
            s_b = sl.von_neumann_entropy(sl.partial_trace(rho, {1}))
            s_c = sl.von_neumann_entropy(sl.partial_trace(rho, {2}))
            tracemalloc.start()
            try:
                ext = sl.extend(rho)
                s_a_btilde = sl.von_neumann_entropy(ext.rho_a_btilde)
                s_a_ctilde = sl.von_neumann_entropy(ext.rho_a_ctilde)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert ext.rho_a_btilde.dims == ext.rho_a_ctilde.dims == (4, 256)
            assert abs(s_a_btilde - s_c) <= 1e-9
            assert abs(s_a_ctilde - s_b) <= 1e-9
            assert peak < 1024 * 1024 * 16

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(
        dims=st.sampled_from([(2, 2, 2), (2, 3, 2), (3, 2, 2)]),
        rank=st.sampled_from([None, 2, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gap_is_conditional_mutual_information_with_the_purifier(self, dims, rank, seed):
        # T^(a) = I(A:E|B) = I(A:E|C) on |psi_ABCE>: the identity behind
        # B -> BE, with S(BE) = S(AC) and S(ABE) = S(C) on the pure state
        rho = sl.random_density(list(dims), rank=rank, seed=seed)
        psi = sl.purify(rho).psi

        def s(*legs):
            return sl.von_neumann_entropy(sl.partial_trace(psi, set(legs)))

        t_a = sl.t_gap(rho).t_a
        for x in (1, 2):
            i_ae_x = s(0, x) + s(x, 3) - s(x) - s(0, x, 3)
            assert abs(i_ae_x - t_a) <= 1e-12

    def test_gap_recomputed_from_purification(self):
        # the gap evaluated from reductions of the purification agrees with
        # the gap evaluated on the original state
        for seed in range(10):
            rho = sl.random_density([2, 2, 2], rank=2, seed=100 + seed)
            direct = sl.t_gap(rho).t_a
            psi = sl.purify(rho).psi
            rho_back = sl.partial_trace(psi.to_density(), {0, 1, 2})
            assert sl.t_gap(rho_back).t_a == pytest.approx(direct, abs=1e-9)

    def test_arity_error(self):
        with pytest.raises(DimensionError):
            sl.extend(sl.random_density([2, 2], seed=1))


class TestPurifySaturating:
    def test_single_block_pure_mixed_part(self):
        psi = sl.random_pure([2, 2, 1], seed=13)
        rho_z = sl.validate_density(np.array([[1.0]]), [1, 1])
        spec = sl.SaturatingSpec(
            (2, 2, 1),
            (sl.SaturatingBlock(1.0, psi, rho_z, (2, 1, 1, 1)),),
        )
        out = sl.purify_saturating(spec)
        assert out.dims == (2, 2, 1, 1)  # single ancilla sector of dimension 1

    def test_family_spec_yields_four_dim_ancilla(self):
        params = sl.DEFAULT_PARAMS
        spec = family_spec(params)
        psi = sl.purify_saturating(spec)
        assert psi.dims == (2, 4, 4, 4)
        reduced = sl.partial_trace(psi.to_density(), {0, 1, 2})
        expected = sl.two_block_state(params)
        assert np.max(np.abs(reduced.data - expected.data)) <= 1e-9

    def test_reduction_matches_mixture(self, rng):
        for _ in range(5):
            spec = sl.random_saturating_spec([2, 3, 3], rng)
            psi = sl.purify_saturating(spec)
            reduced = sl.partial_trace(psi.to_density(), {0, 1, 2})
            built = sl.build_saturating(spec)
            assert np.max(np.abs(reduced.data - built.data)) <= 1e-9

    def test_ancilla_sectors_are_orthogonal(self, rng):
        # cross-sector blocks of the ancilla marginal vanish
        spec = sl.random_saturating_spec([2, 4, 4], rng, min_blocks=2, max_blocks=2)
        psi = sl.purify_saturating(spec)
        d_e = psi.dims[3]
        rho_e = sl.partial_trace(psi.to_density(), {3})
        ranks = []
        for blk in spec.blocks:
            w = np.linalg.eigvalsh(blk.rho_z.data)
            ranks.append(int((w > 1e-12).sum()))
        assert sum(ranks) == d_e
        r0 = ranks[0]
        cross = rho_e.data[:r0, r0:]
        assert np.max(np.abs(cross)) <= 1e-12
