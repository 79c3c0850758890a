import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ssa_lab as sl
from ssa_lab.cli import CampaignConfig
from ssa_lab.errors import ConfigError, DimensionError, ParseError, ValidationError
from ssa_lab.entropy import gap_entropies
from ssa_lab.qmat import trace_out


class TestPartialTrace:
    def test_maximally_entangled_marginal(self):
        rho = sl.PureStateVector((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2)).to_density()
        out = sl.partial_trace(rho, {0})
        np.testing.assert_allclose(out.data, np.eye(2) / 2, atol=1e-14)

    def test_product_recovery(self):
        rho_a = sl.random_density([2], seed=1)
        rho_b = sl.random_density([3], seed=2)
        joint = sl.tensor_density(rho_a, rho_b)
        out = sl.partial_trace(joint, {0})
        np.testing.assert_allclose(out.data, rho_a.data, atol=1e-14)

    def test_middle_subsystem_against_index_sum(self):
        # oracle: out[(i,k),(j,l)] = sum_m rho[(i,m,k),(j,m,l)] by explicit loops
        rho = sl.random_density([2, 3, 2], seed=5)
        out = sl.partial_trace(rho, {0, 2})
        t = rho.data.reshape(2, 3, 2, 2, 3, 2)
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for k in range(2):
                for j in range(2):
                    for l in range(2):
                        acc = 0.0 + 0.0j
                        for m in range(3):
                            acc += t[i, m, k, j, m, l]
                        expected[2 * i + k, 2 * j + l] = acc
        np.testing.assert_allclose(out.data, expected, atol=1e-14)

    def test_trace_preserved(self):
        rho = sl.random_density([2, 3, 2], seed=9)
        out = sl.partial_trace(rho, {1})
        assert abs(out.trace() - 1.0) <= 1e-12

    def test_composition(self):
        rho = sl.random_density([2, 2, 3], seed=3)
        two_step = sl.partial_trace(sl.partial_trace(rho, {0, 2}), {0})
        one_step = sl.partial_trace(rho, {0})
        assert np.max(np.abs(two_step.data - one_step.data)) <= 1e-12

    def test_kron_partial_trace_property(self):
        rho_a = sl.random_density([2], seed=11)
        rho_b = sl.random_density([4], seed=12)
        joint = sl.tensor_density(rho_a, rho_b)
        out = sl.partial_trace(joint, {0})
        np.testing.assert_allclose(out.data, rho_a.data * 1.0, atol=1e-12)

    def test_stack_matches_members(self):
        dims = (2, 3, 2)
        stack = np.stack([sl.random_density(dims, seed=s).data for s in range(5)])
        for keep in ({0}, {1}, {2}, {0, 2}, {1, 2}, {0, 1, 2}):
            out = trace_out(stack.reshape(5, 1, 12, 12), dims, keep)
            for k in range(5):
                member = sl.partial_trace(sl.DensityMatrix(dims, stack[k]), keep)
                np.testing.assert_array_equal(out[k, 0], member.data)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1))
    def test_pure_state_matches_outer_product(self, dims, seed):
        # oracle: the partial trace of the outer product |psi><psi|, on every
        # nonempty keep
        psi = sl.random_pure(dims, seed)
        n = len(dims)
        for mask in range(1, 2**n):
            keep = {i for i in range(n) if mask >> i & 1}
            expected = sl.partial_trace(psi.to_density(), keep)
            out = sl.partial_trace(psi, keep)
            assert out.dims == expected.dims
            assert np.max(np.abs(out.data - expected.data)) <= 1e-14

    def test_errors(self):
        rho = sl.random_density([2, 2], seed=1)
        with pytest.raises(DimensionError):
            sl.partial_trace(rho, set())
        with pytest.raises(DimensionError):
            sl.partial_trace(rho, {2})


class TestPermute:
    def test_swap_matches_product(self):
        rho_a = sl.random_density([2], seed=21)
        rho_b = sl.random_density([3], seed=22)
        ab = sl.tensor_density(rho_a, rho_b)
        ba = sl.permute_subsystems(ab, (1, 0))
        np.testing.assert_allclose(ba.data, sl.tensor_density(rho_b, rho_a).data, atol=1e-14)

    def test_bad_order(self):
        rho = sl.random_density([2, 2], seed=1)
        with pytest.raises(DimensionError):
            sl.permute_subsystems(rho, (0, 0))


class TestEigHermitian:
    """The canonical Hermitian eigenbasis, which ``purify`` now owns.

    Column j of ``purify(rho).psi.amps`` reshaped to (d, d_E) is
    sqrt(l_j) v_j, so its squared norms are the spectrum in purify's order.
    """

    def test_diagonal(self):
        rho = sl.validate_density(np.diag([3.0, 1.0, 2.0]) / 6, [3])
        cols = sl.purify(rho).psi.amps.reshape(3, 3)
        np.testing.assert_allclose(
            np.sum(np.abs(cols) ** 2, axis=0), [0.5, 1 / 3, 1 / 6], atol=1e-12
        )

    def test_pauli_x(self):
        # (I + P/2) / 2 for P = X, Y has spectrum (0.75, 0.25)
        for pauli in ([[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]]):
            rho = sl.validate_density((np.eye(2) + 0.5 * np.array(pauli)) / 2, [2])
            cols = sl.purify(rho).psi.amps.reshape(2, 2)
            np.testing.assert_allclose(
                np.abs(cols), np.sqrt([[0.375, 0.125], [0.375, 0.125]]), atol=1e-12
            )
            # phase convention: first largest-modulus entry real and > 0
            lead = cols[np.argmax(np.abs(cols), axis=0), [0, 1]]
            assert np.all(lead.imag == 0.0) and np.all(lead.real > 0.0)


class TestValidateDensity:
    def test_accepts_maximally_mixed(self):
        rho = sl.validate_density(np.eye(2) / 2, [2])
        assert rho.dims == (2,)

    def test_trace_error(self):
        with pytest.raises(ValidationError, match="trace"):
            sl.validate_density(np.diag([0.6, 0.6]), [2])

    def test_negativity_error(self):
        with pytest.raises(ValidationError, match="positivity"):
            sl.validate_density(np.diag([1.1, -0.1]), [2])

    def test_shape_error(self):
        with pytest.raises(ValidationError, match="shape"):
            sl.validate_density(np.eye(3) / 3, [2])

    def test_hermiticity_error(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(ValidationError, match="hermiticity"):
            sl.validate_density(m, [2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_error(self, bad):
        m = np.diag([bad, 0.5]).astype(complex)
        with pytest.raises(ValidationError, match="finiteness"):
            sl.validate_density(m, [2])

    def test_clips_tiny_negative_eigenvalue(self):
        m = np.diag([1.0 + 5e-11, -5e-11])
        rho = sl.validate_density(m, [2])
        w = np.linalg.eigvalsh(rho.data)
        assert w.min() >= 0.0
        assert abs(np.trace(rho.data).real - 1.0) <= 1e-14


class TestDensityMatrix:
    def test_shape_only_so_nan_raises_at_first_entropy(self):
        # DensityMatrix checks shape only; entropy._spectrum guards every
        # spectrum, a built state's and a real sweep stack's alike
        rho = sl.DensityMatrix((2,), [[np.nan, 0], [0, 0.5]])
        assert np.isnan(rho.data[0, 0])
        with pytest.raises(ValidationError, match="finiteness"):
            sl.von_neumann_entropy(rho)
        stack = np.zeros((3, 8, 8))
        stack[1, 2, 2] = np.nan
        with pytest.raises(ValidationError, match="finiteness"):
            gap_entropies(stack, (2, 2, 2))


class TestPureStateVector:
    def test_nan_error(self):
        with pytest.raises(ValidationError, match="finiteness"):
            sl.PureStateVector((2,), [np.nan, 1.0])


class TestRandomStates:
    def test_random_pure_normalized(self):
        psi = sl.random_pure([2], seed=7)
        assert abs(np.linalg.norm(psi.amps) - 1.0) <= 1e-12

    def test_random_density_valid(self):
        rho = sl.random_density([2, 2], rank=4, seed=7)
        sl.validate_density(rho.data, rho.dims)

    def test_rank_control(self):
        rho = sl.random_density([2, 2], rank=2, seed=7)
        w = np.linalg.eigvalsh(rho.data)
        assert (w > 1e-12).sum() == 2

    def test_invalid_rank(self):
        with pytest.raises(DimensionError):
            sl.random_density([2, 2], rank=0, seed=1)
        with pytest.raises(DimensionError):
            sl.random_density([2, 2], rank=5, seed=1)

    def test_random_density_is_traced_haar_state(self):
        # oracle: the ancilla trace of the Haar state on dims x [rank] that
        # random_density reshapes into its Ginibre factor
        for dims in ((2, 2, 2), (2, 4, 4), (2, 2, 4)):
            side = int(np.prod(dims))
            for rank in (2, side):
                for seed in range(5):
                    psi = sl.random_pure(dims + (rank,), seed)
                    expected = sl.partial_trace(psi.to_density(), range(len(dims)))
                    rho = sl.random_density(dims, rank=rank, seed=seed)
                    assert np.max(np.abs(rho.data - expected.data)) <= 1e-15

    def test_deterministic(self):
        a = sl.random_density([2, 2], seed=42)
        b = sl.random_density([2, 2], seed=42)
        np.testing.assert_array_equal(a.data, b.data)

    def test_mean_is_maximally_mixed(self):
        # Monte-Carlo check of unitary invariance of the induced measure
        rng = np.random.default_rng(99)
        acc = np.zeros((4, 4), dtype=complex)
        n = 10_000
        for _ in range(n):
            acc += sl.random_density([2, 2], rank=4, seed=rng).data
        assert np.max(np.abs(acc / n - np.eye(4) / 4)) <= 2e-2


class TestStateFiles:
    def test_density_roundtrip(self, tmp_path):
        rho = sl.random_density([2, 3], seed=13)
        path = tmp_path / "state.json"
        sl.save_state(str(path), rho)
        back = sl.load_state(str(path))
        assert isinstance(back, sl.DensityMatrix)
        assert back.dims == rho.dims
        np.testing.assert_allclose(back.data, rho.data, atol=1e-12)

    def test_pure_roundtrip(self, tmp_path):
        psi = sl.random_pure([2, 2], seed=14)
        path = tmp_path / "pure.json"
        sl.save_state(str(path), psi)
        back = sl.load_state(str(path))
        assert isinstance(back, sl.PureStateVector)
        np.testing.assert_allclose(back.amps, psi.amps, atol=1e-12)

    def test_written_text(self, tmp_path):
        # exact zeros and negative zeros are written as they are held
        rho = sl.DensityMatrix((2,), [[0.75, complex(-0.0, 0.1)], [complex(0.0, -0.1), 0.25]])
        psi = sl.PureStateVector((2,), [0.6, complex(-0.0, -0.8)])
        path = tmp_path / "state.json"
        sl.save_state(str(path), rho)
        assert path.read_text() == (
            '{"dims": [2], "matrix": [[[0.75, 0.0], [-0.0, 0.1]], '
            '[[0.0, -0.1], [0.25, 0.0]]]}\n'
        )
        sl.save_state(str(path), psi)
        assert path.read_text() == '{"dims": [2], "vector": [[0.6, 0.0], [-0.0, -0.8]]}\n'

    def test_rejects_nan(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"dims": [2], "vector": [[NaN, 0.0], [0.0, 0.0]]}')
        with pytest.raises(ParseError):
            sl.load_state(str(path))

    def test_rejects_bad_matrix_shape(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": [2], "matrix": [[[0.5, 0.0]]]}))
        with pytest.raises(ParseError):
            sl.load_state(str(path))

    def test_rejects_missing_field(self, tmp_path):
        path = tmp_path / "nofield.json"
        path.write_text(json.dumps({"dims": [2]}))
        with pytest.raises(ParseError):
            sl.load_state(str(path))

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            sl.load_state(str(path))


_BIPARTITE = sl.random_density([2, 2], seed=1)
_TRIPARTITE = sl.random_density([2, 2, 2], seed=2)

# each operation on a state of the wrong number of subsystems
_WRONG_ARITY = {
    "mutual_information": lambda: sl.mutual_information(_TRIPARTITE),
    "conditional_entropy": lambda: sl.conditional_entropy(_TRIPARTITE, 1),
    "t_gap": lambda: sl.t_gap(_BIPARTITE),
    "ssa_gap_form1": lambda: sl.ssa_gap_form1(_BIPARTITE),
    "concavity_check": lambda: sl.concavity_check(sl.Ensemble([1.0], [_BIPARTITE])),
    "extend": lambda: sl.extend(_BIPARTITE),
    "discord": lambda: sl.discord(_TRIPARTITE, 1),
    "classical_correlation_at": lambda: sl.classical_correlation_at(
        _TRIPARTITE, sl.MeasurementBasis.computational(2), 1
    ),
    "eof_convex_roof": lambda: sl.eof_convex_roof(_TRIPARTITE),
    "discord_via_kw": lambda: sl.discord_via_kw(sl.random_pure([2, 2], seed=3), 1),
    "kw_gap": lambda: sl.kw_gap(_BIPARTITE),
    "theorem1_audit": lambda: sl.theorem1_audit(_BIPARTITE),
}


@pytest.mark.parametrize("op", list(_WRONG_ARITY))
def test_wrong_arity_raises_dimension_error(op):
    with pytest.raises(DimensionError, match=f"{op} needs a state with"):
        _WRONG_ARITY[op]()


def _campaign(**changes):
    fields = dict(samples=2, dims=(2, 2, 2), rank=None, seed=1, tolerance=1e-9, checks=("ssa",))
    return CampaignConfig(**{**fields, **changes})


def _block(**changes):
    fields = dict(
        weight=1.0,
        psi_ay=sl.random_pure((2, 1, 1), seed=1),
        rho_z=sl.random_density((2, 2), seed=2),
        partition=(1, 2, 1, 2),
    )
    return sl.SaturatingBlock(**{**fields, **changes})


# each non-integer (or out-of-range) value where an integer is due, and the
# error its owner raises; floats and bools are never coerced.  The last four
# rows are values of the wrong shape or range that would otherwise surface
# as raw Python errors (OverflowError, ValueError, TypeError).
_BAD_VALUES = {
    "optimizer-restarts-float": (ConfigError, lambda: sl.OptimizerConfig(restarts=2.5)),
    "optimizer-seed-float": (ConfigError, lambda: sl.OptimizerConfig(seed=1.5)),
    "optimizer-max-evals-float": (ConfigError, lambda: sl.OptimizerConfig(max_evals=1e3)),
    "random-density-rank-float": (
        DimensionError, lambda: sl.random_density([2, 2], rank=1.5, seed=1)
    ),
    "random-density-dims-float": (DimensionError, lambda: sl.random_density([2.7, 2])),
    "density-dims-float": (DimensionError, lambda: sl.DensityMatrix((2.5,), np.eye(2) / 2)),
    "campaign-samples-float": (ConfigError, lambda: _campaign(samples=2.5)),
    "campaign-seed-float": (ConfigError, lambda: _campaign(seed=1.5)),
    "campaign-rank-float": (ConfigError, lambda: _campaign(rank=1.5)),
    "campaign-dims-zero": (DimensionError, lambda: _campaign(dims=(2, 0, 2))),
    "sweep-steps-float": (ConfigError, lambda: sl.SweepAxis("beta2", steps=2.5)),
    "block-partition-float": (DimensionError, lambda: _block(partition=(1.5, 2, 1, 2))),
    "block-embed-float": (DimensionError, lambda: _block(embed_b=0.5)),
    "block-weight-above-one": (ValidationError, lambda: _block(weight=2.0)),
    "discord-measured-float": (DimensionError, lambda: sl.discord(_BIPARTITE, 1.0)),
    "classical-correlation-measured-float": (
        DimensionError,
        lambda: sl.classical_correlation_at(
            _BIPARTITE, sl.MeasurementBasis.computational(2), 1.0
        ),
    ),
    "discord-via-kw-measured-float": (
        DimensionError, lambda: sl.discord_via_kw(sl.random_pure([2, 2, 2], seed=3), 1.0)
    ),
    "conditional-entropy-float": (DimensionError, lambda: sl.conditional_entropy(_BIPARTITE, 1.0)),
    "partial-trace-keep-float": (DimensionError, lambda: sl.partial_trace(_BIPARTITE, {1.5})),
    "permute-order-float": (
        DimensionError, lambda: sl.permute_subsystems(_BIPARTITE, (1.0, 0))
    ),
    "state-entry-huge-int": (
        ParseError,
        lambda: sl.qmat.density_from_dict({"dims": [1], "matrix": [[[10**400, 0]]]}),
    ),
    "saturating-spec-two-dims": (
        DimensionError, lambda: sl.random_saturating_spec([2, 2], np.random.default_rng(1))
    ),
    "density-dims-not-iterable": (DimensionError, lambda: sl.DensityMatrix(2, np.eye(2) / 2)),
    "partial-trace-keep-not-iterable": (DimensionError, lambda: sl.partial_trace(_BIPARTITE, 1)),
    "random-density-seed-negative": (ConfigError, lambda: sl.random_density([2, 2], seed=-1)),
    "random-density-seed-string": (ConfigError, lambda: sl.random_density([2, 2], seed="x")),
    "random-pure-seed-float": (ConfigError, lambda: sl.random_pure([2, 2], seed=1.5)),
}


@pytest.mark.parametrize("case", list(_BAD_VALUES))
def test_non_integer_values_rejected(case):
    error, call = _BAD_VALUES[case]
    with pytest.raises(error):
        call()


def test_numpy_integers_accepted():
    rho = sl.random_density(np.array([2, 2]), rank=np.int64(2), seed=1)
    assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)
    block = _block(rho_z=rho, partition=np.array([1, 2, 1, 2]))
    assert block.partition == (1, 2, 1, 2)
    assert all(type(d) is int for d in block.partition)


# data numpy cannot read as numbers, passed to each public constructor that
# converts array data; each must raise ValidationError, not a raw numpy error
_STRINGS_2X2 = [["a", "b"], ["c", "d"]]
_NON_NUMERIC = {
    "density-strings": lambda: sl.DensityMatrix((2,), _STRINGS_2X2),
    "density-object": lambda: sl.DensityMatrix((2,), object()),
    "density-ragged": lambda: sl.DensityMatrix((2,), [[1, 0], [0]]),
    "pure-strings": lambda: sl.PureStateVector((2,), ["a", "b"]),
    "basis-strings": lambda: sl.MeasurementBasis(_STRINGS_2X2),
    "basis-angles-strings": lambda: sl.MeasurementBasis.from_angles(2, ["a", "b"]),
    "validate-density-strings": lambda: sl.validate_density(_STRINGS_2X2, (2,)),
    "two-block-p1-string": lambda: sl.TwoBlockParams(p1="x"),
    "two-block-alpha1-none": lambda: sl.TwoBlockParams(alpha1=None),
    "ensemble-weight-string": lambda: sl.Ensemble(["a"], [sl.random_density([2], seed=1)]),
}


@pytest.mark.parametrize("case", list(_NON_NUMERIC))
def test_non_numeric_data_rejected(case):
    with pytest.raises(ValidationError):
        _NON_NUMERIC[case]()


# numeric data given in another form (a numeric string, a list for a sweep
# row) is stored as checked, so what derives from it matches float input
_CONVERTED = {
    "two-block-p1-string": (
        lambda: sl.TwoBlockParams(p1="0.5").p2, lambda: sl.TwoBlockParams(p1=0.5).p2
    ),
    "two-block-beta2-string": (
        lambda: sl.two_block_state(sl.TwoBlockParams(beta2="0.2")).data,
        lambda: sl.two_block_state(sl.TwoBlockParams(beta2=0.2)).data,
    ),
    "two-block-p1-row": (
        lambda: sl.TwoBlockParams(p1=[0.3, 0.5]).p2, lambda: 1.0 - np.array([0.3, 0.5])
    ),
}


@pytest.mark.parametrize("case", list(_CONVERTED))
def test_converted_data_stored(case):
    call, expected = _CONVERTED[case]
    np.testing.assert_array_equal(call(), expected())


# each value the one tolerance rule refuses, at each place that takes one
_BAD_TOLERANCES = {"string": "x", "none": None, "nan": float("nan"), "negative": -1, "bool": True}
_SPEC = sl.random_saturating_spec([2, 2, 2], np.random.default_rng(1))
_TOLERANCE_SITES = {
    "campaign": lambda tol: _campaign(tolerance=tol),
    "certify": lambda tol: sl.certify(_TRIPARTITE, _SPEC, tol=tol),
}


@pytest.mark.parametrize("site", list(_TOLERANCE_SITES))
@pytest.mark.parametrize("value", list(_BAD_TOLERANCES))
def test_bad_tolerance_rejected(site, value):
    with pytest.raises(ConfigError, match="tolerance"):
        _TOLERANCE_SITES[site](_BAD_TOLERANCES[value])


def test_tolerance_stored_as_float():
    assert type(_campaign(tolerance=np.float32(0.5)).tolerance) is float
    assert type(_campaign(tolerance=0).tolerance) is float
