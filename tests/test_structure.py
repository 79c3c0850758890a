import json

import numpy as np
import pytest

import ssa_lab as sl
from ssa_lab.errors import DimensionError, ParseError, ValidationError

from conftest import collide_embeddings, family_blocks, family_spec


def _block_oracle(blk):
    """|psi_AY><psi_AY| (x) rho_Z by Kronecker product, reordered from
    (A, B^L, C^L, B^R, C^R) to (A, B^L B^R, C^L C^R)."""
    bl, br, cl, cr = blk.partition
    prod = np.kron(blk.psi_ay.to_density().data, blk.rho_z.data)
    five = sl.DensityMatrix((blk.d_a, bl, cl, br, cr), prod)
    return sl.permute_subsystems(five, (0, 1, 3, 2, 4)).data


def _isometry(global_dim, local_dim, offset):
    v = np.zeros((global_dim, local_dim))
    v[offset : offset + local_dim, :] = np.eye(local_dim)
    return v


def _embedded_oracle(blk, dims):
    """The block carried into the global space by I_A (x) V_B (x) V_C."""
    d_a, d_b, d_c = dims
    iso = np.kron(
        np.eye(d_a),
        np.kron(_isometry(d_b, blk.b_dim, blk.embed_b), _isometry(d_c, blk.c_dim, blk.embed_c)),
    )
    return iso @ _block_oracle(blk) @ iso.T


def _overlap_oracle(spec):
    """Largest ||rho_k rho_k'||_F, k != k', over the B- and the C-marginals
    of the spec's blocks, each built by _embedded_oracle."""
    states = [sl.DensityMatrix(spec.dims, _embedded_oracle(blk, spec.dims)) for blk in spec.blocks]
    overlaps = []
    for side in (1, 2):
        margs = [sl.partial_trace(state, {side}).data for state in states]
        overlaps += [
            np.linalg.norm(m @ n)
            for i, m in enumerate(margs)
            for j, n in enumerate(margs)
            if i != j
        ]
    return float(max(overlaps))


def _build_one_block(psi, rho_z, partition):
    blk = sl.SaturatingBlock(1.0, psi, rho_z, partition)
    out = sl.build_saturating(sl.SaturatingSpec((blk.d_a, blk.b_dim, blk.c_dim), (blk,)))
    np.testing.assert_allclose(out.data, _block_oracle(blk), rtol=0, atol=1e-14)
    return out


class TestBuildBlock:
    def test_fully_pure_block(self):
        psi = sl.random_pure([2, 2, 2], seed=1)
        rho_z = sl.validate_density(np.array([[1.0]]), [1, 1])
        out = _build_one_block(psi, rho_z, (2, 1, 2, 1))
        assert out.dims == (2, 2, 2)
        np.testing.assert_allclose(out.data, psi.to_density().data, atol=1e-12)
        assert sl.t_gap(out).t_a <= 1e-9

    def test_a_factorized_block(self):
        # |psi_A> (x) rho_BC: Y trivial beyond A
        psi_a = sl.random_pure([2, 1, 1], seed=2)
        rho_bc = sl.random_density([2, 2], seed=3)
        out = _build_one_block(psi_a, rho_bc, (1, 2, 1, 2))
        assert out.dims == (2, 2, 2)
        a_only = sl.PureStateVector((2,), psi_a.amps)
        expected = sl.tensor_density(a_only.to_density(), rho_bc)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12)
        assert sl.t_gap(out).t_a <= 1e-9

    def test_ab_pure_block(self):
        # |psi_AB><psi_AB| (x) rho_C
        psi_ab = sl.random_pure([2, 2, 1], seed=4)
        rho_c = sl.random_density([1, 2], seed=5)
        out = _build_one_block(psi_ab, rho_c, (2, 1, 1, 2))
        assert out.dims == (2, 2, 2)
        ab_only = sl.PureStateVector((2, 2), psi_ab.amps)
        c_only = sl.DensityMatrix((2,), rho_c.data)
        expected = sl.tensor_density(ab_only.to_density(), c_only)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12)
        assert sl.t_gap(out).t_a <= 1e-9

    def test_interleaved_partition_has_zero_gap(self, rng):
        # nontrivial Y and Z on both sides
        psi = sl.random_pure([2, 2, 2], seed=6)
        rho_z = sl.random_density([2, 2], seed=7)
        out = _build_one_block(psi, rho_z, (2, 2, 2, 2))
        assert out.dims == (2, 4, 4)
        assert sl.t_gap(out).t_a <= 1e-9

    def test_dim_mismatch(self):
        psi = sl.random_pure([2, 2, 2], seed=1)
        rho_z = sl.random_density([2, 2], seed=2)
        with pytest.raises(DimensionError, match="pure block"):
            sl.SaturatingBlock(1.0, psi, rho_z, (2, 2, 3, 2))
        with pytest.raises(DimensionError, match="mixed block"):
            sl.SaturatingBlock(1.0, psi, rho_z, (2, 3, 2, 1))


class TestBuildSaturating:
    def test_family_spec_at_zero_gamma(self):
        params = sl.TwoBlockParams(lambda1=0.0)
        built = sl.build_saturating(family_spec(params))
        assert sl.t_gap(built).t_a <= 1e-8

    def test_family_spec_matches_direct_construction(self):
        params = sl.DEFAULT_PARAMS
        built = sl.build_saturating(family_spec(params))
        direct = sl.two_block_state(params)
        assert np.max(np.abs(built.data - direct.data)) <= 1e-12
        assert sl.t_gap(built).t_a == pytest.approx(
            sl.gap_closed_form(params), abs=1e-8
        )

    def test_embedding_matches_isometry(self, rng):
        # oracle: each block by Kronecker product, carried into the global
        # space by the coordinate-subspace isometry I_A (x) V_B (x) V_C;
        # single-block specs first, then specs of two or three blocks
        for min_blocks, max_blocks in [(1, 1)] * 5 + [(2, 3)] * 5:
            spec = sl.random_saturating_spec(
                [2, 4, 6], rng, min_blocks=min_blocks, max_blocks=max_blocks
            )
            embedded = [_embedded_oracle(blk, spec.dims) for blk in spec.blocks]
            mixture = sum(blk.weight * e for blk, e in zip(spec.blocks, embedded))
            np.testing.assert_allclose(
                sl.build_saturating(spec).data, mixture, rtol=0, atol=1e-14
            )

    def test_two_orthogonal_sectors(self, rng):
        # blocks of the A-factorized and AB-pure forms in disjoint sectors
        psi_a = sl.random_pure([2, 1, 1], seed=8)
        rho_bc = sl.random_density([2, 2], seed=9)
        block1 = sl.SaturatingBlock(0.4, psi_a, rho_bc, (1, 2, 1, 2), 0, 0)
        psi_ab = sl.random_pure([2, 2, 1], seed=10)
        rho_c = sl.random_density([1, 2], seed=11)
        block2 = sl.SaturatingBlock(0.6, psi_ab, rho_c, (2, 1, 1, 2), 2, 2)
        spec = sl.SaturatingSpec((2, 4, 4), (block1, block2), orthogonal=True)
        built = sl.build_saturating(spec)
        assert sl.t_gap(built).t_a <= 1e-8

    def test_overlap_with_declared_orthogonality_rejected(self):
        params = sl.DEFAULT_PARAMS
        with pytest.raises(ValidationError, match="overlap"):
            sl.SaturatingSpec((2, 4, 4), family_blocks(params), orthogonal=True)

    def test_weights_must_sum_to_one(self):
        psi = sl.random_pure([2, 2, 1], seed=1)
        rho_z = sl.validate_density(np.array([[1.0]]), [1, 1])
        blk = sl.SaturatingBlock(0.9, psi, rho_z, (2, 1, 1, 1))
        with pytest.raises(ValidationError, match="sum"):
            sl.SaturatingSpec((2, 2, 1), (blk,))

    def test_nan_weight_rejected(self):
        psi = sl.random_pure([2, 2, 1], seed=1)
        rho_z = sl.validate_density(np.array([[1.0]]), [1, 1])
        with pytest.raises(ValidationError, match="weight"):
            sl.SaturatingBlock(float("nan"), psi, rho_z, (2, 1, 1, 1))


class TestCertify:
    def test_round_trip(self, rng):
        for _ in range(5):
            spec = sl.random_saturating_spec([2, 4, 4], rng)
            built = sl.build_saturating(spec)
            cert = sl.certify(built, spec)
            assert cert.passed

    def test_family_nonzero_gamma_fails_orthogonality_and_gap(self):
        params = sl.DEFAULT_PARAMS
        spec = family_spec(params)
        rho = sl.two_block_state(params)
        cert = sl.certify(rho, spec)
        assert cert.rebuild_ok  # the decomposition does rebuild the state
        assert not cert.orthogonality_ok
        assert cert.orthogonality_witness == pytest.approx(
            params.lambda1 * params.b * params.beta2**2, abs=1e-12
        )
        assert not cert.gap_ok
        assert cert.gap_witness == pytest.approx(sl.gap_closed_form(params), abs=1e-8)
        assert not cert.passed

    def test_noise_breaks_rebuild_clause(self, rng):
        spec = sl.random_saturating_spec([2, 3, 3], rng)
        built = sl.build_saturating(spec)
        noise = 1e-3
        side = built.dim
        noisy = (1 - noise) * built.data + noise * np.eye(side) / side
        noisy_state = sl.DensityMatrix(built.dims, noisy)
        cert = sl.certify(noisy_state, spec, tol=1e-8)
        assert not cert.rebuild_ok
        # witness magnitude tracks the perturbation size
        expected = float(np.max(np.abs(noisy - built.data)))
        assert cert.rebuild_witness == pytest.approx(expected, rel=1e-9)
        assert 1e-5 <= cert.rebuild_witness <= 1e-3

    def test_dims_mismatch(self, rng):
        spec = sl.random_saturating_spec([2, 3, 3], rng)
        with pytest.raises(DimensionError):
            sl.certify(sl.random_density([2, 2, 2], seed=1), spec)

    def test_witnesses_match_build_and_marginals(self, rng):
        # certify reads one root; its rebuild witness equals the one from
        # build_saturating, and its orthogonality witness the largest
        # overlap of the marginals of the Kronecker-product blocks carried
        # in by isometry, on passing and collided specs
        for _ in range(5):
            spec = sl.random_saturating_spec([2, 4, 4], rng, min_blocks=2)
            for candidate in (spec, collide_embeddings(spec)):
                rho = sl.random_density([2, 4, 4], seed=rng)
                cert = sl.certify(rho, candidate)
                built = sl.build_saturating(candidate).data
                assert cert.rebuild_witness == float(np.max(np.abs(rho.data - built)))
                expected = _overlap_oracle(candidate)
                assert cert.orthogonality_witness == pytest.approx(expected, abs=1e-14)
                assert cert.orthogonality_ok == (expected <= sl.structure.ORTHOGONALITY_TOL)

    def test_family_marginal_overlap_witness(self):
        # B-marginal overlap lambda1 * b * beta2^2; C-marginals orthogonal,
        # so the witness vanishes with lambda1
        for lambda1 in (0.5, 0.3, 0.0):
            params = sl.TwoBlockParams(lambda1=lambda1)
            cert = sl.certify(sl.two_block_state(params), family_spec(params))
            expected = params.lambda1 * params.b * params.beta2**2
            assert cert.orthogonality_witness == pytest.approx(expected, abs=1e-12)
            assert cert.orthogonality_ok == (lambda1 == 0.0)
        assert cert.orthogonality_witness <= 1e-15

    def test_identical_states_overlap(self):
        # two copies of one block: the witness is the larger of the
        # marginals' ||rho^2||_F, and the clause fails
        blk = sl.SaturatingBlock(
            0.5, sl.random_pure([2, 2, 2], seed=6), sl.random_density([1, 1], seed=7),
            (2, 1, 2, 1),
        )
        spec = sl.SaturatingSpec((2, 2, 2), (blk, blk))
        state = sl.DensityMatrix(spec.dims, _embedded_oracle(blk, spec.dims))
        purity_norms = [
            float(np.linalg.norm(m @ m))
            for m in (sl.partial_trace(state, {side}).data for side in (1, 2))
        ]
        cert = sl.certify(sl.build_saturating(spec), spec)
        assert not cert.orthogonality_ok
        assert cert.orthogonality_witness == pytest.approx(max(purity_norms), rel=1e-12)


class TestRandomSpecCampaigns:
    def test_soundness(self, rng):
        # randomized specs with declared-orthogonal embeddings saturate
        for dims in ([2, 2, 2], [2, 3, 3], [2, 4, 4], [3, 3, 4]):
            for _ in range(10):
                spec = sl.random_saturating_spec(dims, rng)
                built = sl.build_saturating(spec)
                assert sl.t_gap(built).t_a <= 1e-8

    def test_collisions_generically_break_saturation(self, rng):
        positive = 0
        total = 30
        for _ in range(total):
            spec = sl.random_saturating_spec([2, 4, 4], rng, min_blocks=2)
            bad = collide_embeddings(spec)
            gap = sl.t_gap(sl.build_saturating(bad)).t_a
            if gap > 1e-5:
                positive += 1
        assert positive >= int(0.95 * total)

    def test_mixing_saturating_states(self, rng):
        # orthogonal sectors keep the mixture saturating; overlapping
        # sectors generically do not
        for _ in range(5):
            spec = sl.random_saturating_spec([2, 4, 4], rng, min_blocks=2, max_blocks=2)
            built = sl.build_saturating(spec)
            assert sl.t_gap(built).t_a <= 1e-8
        broken = 0
        for _ in range(10):
            spec = sl.random_saturating_spec([2, 4, 4], rng, min_blocks=2, max_blocks=2)
            bad = collide_embeddings(spec)
            if sl.t_gap(sl.build_saturating(bad)).t_a > 1e-4:
                broken += 1
        assert broken >= 8


class TestCorollaryThree:
    def test_kw_equality_on_saturating_states(self, rng):
        # saturating states with qubit A and B satisfy the monogamy relation
        # with equality
        cfg = sl.OptimizerConfig(restarts=10, seed=5)
        for _ in range(10):
            spec = sl.random_saturating_spec([2, 2, 2], rng)
            built = sl.build_saturating(spec)
            report = sl.kw_gap(built, cfg)
            assert abs(report.gap) <= 1e-4

    def test_conservation_on_saturating_states(self, rng):
        # E(AB) + E(AC) = D(AB) + D(AC) also for mixed saturating states
        cfg = sl.OptimizerConfig(restarts=10, seed=6)
        for _ in range(5):
            spec = sl.random_saturating_spec([2, 2, 2], rng)
            built = sl.build_saturating(spec)
            rho_ab = sl.partial_trace(built, {0, 1})
            rho_ac = sl.partial_trace(built, {0, 2})
            lhs = sl.eof_two_qubit(rho_ab) + sl.eof_two_qubit(rho_ac)
            rhs = (
                sl.discord(rho_ab, 1, cfg).discord
                + sl.discord(rho_ac, 1, cfg).discord
            )
            assert abs(lhs - rhs) <= 2e-4


class TestSpecFiles:
    def test_roundtrip(self, rng, tmp_path):
        spec = sl.random_saturating_spec([2, 3, 3], rng)
        path = tmp_path / "spec.json"
        sl.save_spec(str(path), spec)
        back = sl.load_spec(str(path))
        assert back.dims == spec.dims
        assert back.orthogonal == spec.orthogonal
        assert len(back.blocks) == len(spec.blocks)
        np.testing.assert_allclose(
            sl.build_saturating(back).data, sl.build_saturating(spec).data, atol=1e-9
        )

    def test_orthogonal_defaults_to_false(self, tmp_path):
        # the type and a spec file without the field agree: the family's
        # overlapping blocks load, and certify reports the overlap
        params = sl.DEFAULT_PARAMS
        by_type = sl.SaturatingSpec((2, 4, 4), family_blocks(params))
        record = sl.structure.spec_to_dict(by_type)
        del record["orthogonal"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(record))
        by_file = sl.load_spec(str(path))
        rho = sl.two_block_state(params)
        for spec in (by_type, by_file):
            assert not spec.orthogonal
            assert not sl.certify(rho, spec).orthogonality_ok

    def test_parse_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2, 2], "blocks": []}')
        with pytest.raises(ParseError):
            sl.load_spec(str(path))
        path.write_text('{"dims": [2, 2, 2], "blocks": [{"weight": 1.0}]}')
        with pytest.raises(ParseError):
            sl.load_spec(str(path))
        path.write_text('{"dims": [2, 2, 2], "blocks": [{"weight": NaN}]}')
        with pytest.raises(ParseError, match="non-finite"):
            sl.load_spec(str(path))
