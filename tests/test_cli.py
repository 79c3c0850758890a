import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ssa_lab as sl
from ssa_lab.cli import MAX_SAMPLES, MAX_STATE_SIDE, CampaignConfig, main
from ssa_lab.errors import CapabilityError, ConfigError
from ssa_lab.twoblock import MAX_SWEEP_STEPS, SweepAxis

from conftest import bell_phi_plus


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ssa_lab.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_import_leaves_out_scipy_optimize():
    # no subcommand pays for importing scipy.optimize at startup
    code = "import sys, ssa_lab.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# A fresh interpreter runs one call through cli.main, then prints its exit
# code and which of the lazily loaded modules ran; the package registers
# them in sys.modules up front, so a module that ran is one whose code
# executed, a plain module object.
_CALL_AND_REPORT = (
    "import json, sys, types; from ssa_lab.cli import main; code = main(sys.argv[1:]); "
    "ran = [m for m in ('qcorr', 'structure', 'twoblock') "
    "if type(sys.modules.get('ssa_lab.' + m)) is types.ModuleType]; "
    "print(json.dumps([code, ran]))"
)


@pytest.mark.parametrize(
    "args, code, ran",
    [
        (("entropy", "{bell}"), 0, []),
        (("tgap", "{pure}"), 0, []),
        (("tgap", "{malformed}"), 1, []),
        (("build", "{spec}", "--out", "{built}"), 0, ["structure"]),
        (("certify", "{saturating}", "{spec}"), 0, ["structure"]),
        (("sweep", "--figure", "a", "--steps", "4"), 0, ["twoblock"]),
        (("campaign", "--checks", "ssa,concavity", "--n", "2", "--dims", "2,2,2",
          "--seed", "1"), 0, []),
        (("discord", "{bell}", "--seed", "1", "--restarts", "1"), 0, ["qcorr"]),
    ],
    ids=["entropy", "tgap", "malformed", "build", "certify", "sweep", "campaign", "discord"],
)
def test_each_call_loads_only_the_modules_it_runs(
    args, code, ran, tmp_path, bell_file, pure_state_file, spec_file
):
    saturating = tmp_path / "saturating.json"
    sl.save_state(str(saturating), sl.build_saturating(sl.load_spec(spec_file)))
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"dims": [2, 2, 2], "matrix": [[', encoding="utf-8")
    paths = dict(bell=bell_file, pure=pure_state_file, spec=spec_file, malformed=malformed,
                 saturating=saturating, built=tmp_path / "built.json")
    argv = [a.format(**paths) for a in args]
    res = subprocess.run(
        [sys.executable, "-c", _CALL_AND_REPORT, *argv],
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.splitlines()[-1]) == [code, ran]


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]]
    assert names == ["numpy"]


@pytest.fixture
def pure_state_file(tmp_path):
    psi = sl.random_pure([2, 2, 2], seed=17)
    path = tmp_path / "pure.json"
    sl.save_state(str(path), psi)
    return str(path)


@pytest.fixture
def mixed_state_file(tmp_path):
    path = tmp_path / "mixed.json"
    sl.save_state(str(path), sl.random_density([2, 2], rank=2, seed=1))
    return str(path)


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    sl.save_state(str(path), bell_phi_plus().to_density())
    return str(path)


@pytest.fixture
def spec_file(tmp_path):
    rng = np.random.default_rng(23)
    spec = sl.random_saturating_spec([2, 3, 3], rng)
    path = tmp_path / "spec.json"
    sl.save_spec(str(path), spec)
    return str(path)


class TestSubcommands:
    def test_entropy(self, bell_file):
        res = run_cli("entropy", bell_file)
        assert res.returncode == 0
        record = json.loads(res.stdout)
        assert record["entropy"] == pytest.approx(0.0, abs=1e-9)

    def test_tgap_pure_state(self, pure_state_file):
        res = run_cli("tgap", pure_state_file)
        assert res.returncode == 0
        record = json.loads(res.stdout)
        assert abs(record["t_a"]) <= 1e-9
        assert set(record) == {"t_a", "components"}
        assert set(record["components"]) == {"s_ab", "s_ac", "s_b", "s_c"}

    def test_discord(self, bell_file):
        res = run_cli("discord", bell_file, "--measured", "1", "--seed", "3", "--restarts", "6")
        assert res.returncode == 0
        record = json.loads(res.stdout)
        assert record["discord"] == pytest.approx(1.0, abs=1e-6)
        assert record["converged"] is True

    def test_discord_reports_evaluations(self, tmp_path):
        rho = sl.random_density([2, 2], rank=2, seed=19)
        path = tmp_path / "mixed.json"
        sl.save_state(str(path), rho)
        res = run_cli("discord", str(path), "--seed", "3", "--restarts", "4")
        assert res.returncode == 0
        record = json.loads(res.stdout)
        expected = sl.discord(rho, 1, sl.OptimizerConfig(restarts=4, seed=3)).nfev
        assert record["nfev"] == expected > 4

    def test_eof_wootters(self, bell_file):
        res = run_cli("eof", bell_file, "--seed", "1")
        assert res.returncode == 0
        record = json.loads(res.stdout)
        assert record["method"] == "wootters"
        assert record["eof"] == pytest.approx(1.0, abs=1e-9)

    def test_eof_roof(self, bell_file):
        res = run_cli(
            "eof", bell_file, "--method", "roof", "--seed", "1", "--restarts", "3"
        )
        assert res.returncode == 0
        record = json.loads(res.stdout)
        assert record["method"] == "convex_roof"
        assert record["eof"] == pytest.approx(1.0, abs=1e-6)

    def test_kw(self, pure_state_file):
        res = run_cli("kw", pure_state_file, "--seed", "2", "--restarts", "8")
        assert res.returncode == 0
        record = json.loads(res.stdout)
        assert abs(record["gap"]) <= 1e-4

    def test_build_certify_round_trip(self, tmp_path, spec_file):
        out = tmp_path / "state.json"
        res = run_cli("build", spec_file, "--out", str(out))
        assert res.returncode == 0
        res = run_cli("certify", str(out), spec_file)
        assert res.returncode == 0
        record = json.loads(res.stdout)
        assert record["passed"] is True

    def test_build_stdout_feeds_certify(self, tmp_path, spec_file):
        res = run_cli("build", spec_file)
        assert res.returncode == 0
        state_path = tmp_path / "piped.json"
        state_path.write_text(res.stdout)
        res = run_cli("certify", str(state_path), spec_file)
        assert res.returncode == 0
        assert json.loads(res.stdout)["passed"] is True

    def test_sweep_contract(self, tmp_path):
        out = tmp_path / "grid.csv"
        res = run_cli("sweep", "--figure", "a", "--steps", "8", "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param1,param2,t_closed,t_numeric"
        assert len(lines) == 65
        for line in lines[1:9]:  # beta2 = 0 block
            cells = line.split(",")
            assert abs(float(cells[2])) <= 1e-10

    def test_campaign_zero_violations(self):
        res = run_cli(
            "campaign",
            "--checks", "ssa,concavity",
            "--n", "25",
            "--dims", "2,2,2",
            "--seed", "7",
        )
        assert res.returncode == 0
        record = json.loads(res.stdout)
        assert record["checks"]["ssa"]["violations"] == 0
        assert record["checks"]["concavity"]["violations"] == 0
        assert record["checks"]["ssa"]["worst_margin"] >= -1e-9

    def test_campaign_kw(self):
        res = run_cli(
            "campaign",
            "--checks", "kw",
            "--n", "5",
            "--dims", "2,2,2",
            "--seed", "11",
            "--tol", "1e-4",
            "--restarts", "6",
        )
        assert res.returncode == 0
        record = json.loads(res.stdout)
        assert record["checks"]["kw"]["violations"] == 0


class TestWithoutScipy:
    # `import scipy` raises ImportError in the child, so any scipy use fails
    @pytest.mark.parametrize(
        "args",
        [
            ("discord", "{mixed}", "--seed", "3", "--restarts", "4"),
            ("eof", "{mixed}", "--method", "roof", "--seed", "1", "--restarts", "3"),
            ("kw", "{pure}", "--seed", "2", "--restarts", "4"),
        ],
    )
    def test_optimizer_subcommands_run(self, args, mixed_state_file, pure_state_file):
        code = (
            "import sys; sys.modules['scipy'] = None; "
            "from ssa_lab.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        argv = [a.format(mixed=mixed_state_file, pure=pure_state_file) for a in args]
        res = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=300
        )
        assert res.returncode == 0, res.stderr
        assert isinstance(json.loads(res.stdout), dict)


class TestDeterminism:
    def test_discord_byte_identical(self, bell_file):
        args = ("discord", bell_file, "--seed", "5", "--restarts", "4")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout

    def test_roof_eof_byte_identical(self, mixed_state_file):
        args = ("eof", mixed_state_file, "--method", "roof", "--seed", "5", "--restarts", "3")
        first = run_cli(*args)
        assert first.returncode == 0, first.stderr
        assert first.stdout == run_cli(*args).stdout

    def test_kw_byte_identical(self, pure_state_file):
        args = ("kw", pure_state_file, "--seed", "5", "--restarts", "4")
        first = run_cli(*args)
        assert first.returncode == 0, first.stderr
        assert first.stdout == run_cli(*args).stdout

    def test_campaign_byte_identical(self):
        args = (
            "campaign", "--checks", "ssa", "--n", "10", "--dims", "2,2,2", "--seed", "3"
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_sweep_byte_identical(self):
        args = ("sweep", "--figure", "b", "--steps", "6")
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestExitCodes:
    def test_missing_file(self):
        assert run_cli("entropy", "/no/such/file.json").returncode == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        res = run_cli("entropy", str(path))
        assert res.returncode == 1
        assert "error" in res.stderr

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"dims": [2], "vector": [[NaN, 0.0], [0.0, 0.0]]}')
        res = run_cli("entropy", str(path))
        assert res.returncode == 1

    def test_huge_integer_entry_rejected(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dims": [1], "matrix": [[[10**400, 0]]]}))
        res = run_cli("entropy", str(path))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert res.stdout == ""

    def test_nan_spec_rejected(self, tmp_path):
        path = tmp_path / "nan_spec.json"
        path.write_text('{"dims": [2, 2, 2], "blocks": [{"weight": NaN}]}')
        res = run_cli("build", str(path))
        assert res.returncode == 1
        assert "non-finite" in res.stderr

    def test_invalid_state(self, tmp_path):
        path = tmp_path / "invalid.json"
        path.write_text(
            json.dumps({"dims": [2], "matrix": [[[0.6, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.6, 0.0]]]})
        )
        res = run_cli("entropy", str(path))
        assert res.returncode == 1
        assert "trace" in res.stderr

    def test_capability_exit_code(self, tmp_path):
        rho = sl.random_density([2, 9], seed=1)
        path = tmp_path / "big.json"
        sl.save_state(str(path), rho)
        res = run_cli("discord", str(path), "--seed", "1")
        assert res.returncode == 2
        assert "capability" in res.stderr

    def test_bad_flag_exits_one(self, bell_file):
        res = run_cli("discord", bell_file, "--seed", "1", "--measured", "7")
        assert res.returncode == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ("--max-evals", "1.5"),
            ("--restarts", "many"),
            ("--max-evals", "0"),
            ("--max-evals", "-5"),
            ("--restarts", "0"),
            ("--restarts", "-3"),
        ],
    )
    def test_bad_optimizer_settings_exit_one(self, mixed_state_file, flags):
        res = run_cli("discord", mixed_state_file, "--seed", "1", *flags)
        assert res.returncode == 1
        assert res.stdout == ""
        assert "error" in res.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("discord", "{mixed}", "--seed", "1", "--tol", "1e-10"),
            ("kw", "{pure}", "--seed", "1", "--tol", "1e-10"),
            ("eof", "{mixed}", "--seed", "1", "--method", "roof", "--cardinality", "4"),
        ],
    )
    def test_removed_flags_exit_one(self, args, mixed_state_file, pure_state_file):
        argv = [a.format(mixed=mixed_state_file, pure=pure_state_file) for a in args]
        res = run_cli(*argv)
        assert res.returncode == 1
        assert res.stdout == ""
        assert "unrecognized arguments" in res.stderr

    @pytest.mark.parametrize(
        "command, dims",
        [(("discord",), (2, 4)), (("eof", "--method", "roof"), (2, 2))],
        ids=["discord", "eof-roof"],
    )
    def test_huge_restarts_exit_one_without_traceback(self, tmp_path, command, dims):
        # refused by OptimizerConfig before any restart is drawn
        path = tmp_path / "state.json"
        sl.save_state(str(path), sl.random_density(list(dims), rank=2, seed=1))
        res = run_cli(
            command[0], str(path), *command[1:], "--seed", "1", "--restarts", "1000000000000000"
        )
        assert res.returncode == 1
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        assert "restarts must be at most 1000" in res.stderr

    def test_bad_optimizer_settings_exit_one_on_wootters_eof(self, bell_file):
        res = run_cli("eof", bell_file, "--seed", "1", "--restarts", "0")
        assert res.returncode == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ("--restarts", "-1"),
            ("--max-evals", "0"),
            ("--tol", "nan"),
            ("--tol", "-1"),
            ("--tol", "inf"),
        ],
    )
    def test_bad_campaign_optimizer_settings_exit_one(self, flags):
        res = run_cli(
            "campaign", "--checks", "sa", "--n", "2", "--dims", "2,2", "--seed", "1", *flags
        )
        assert res.returncode == 1
        assert res.stdout == ""

    def test_sa_check_reads_a_rooted_sample_off_its_root(self, monkeypatch):
        # I(A:BC) of a rank-3 2x3x4 sample, read without forming its matrix
        from ssa_lab import cli

        samples, draw = [], cli._sample_state

        def keep(cfg, seed):
            samples.append(draw(cfg, seed))
            return samples[-1]

        monkeypatch.setattr(cli, "_sample_state", keep)
        cfg = CampaignConfig(
            samples=1, dims=(2, 3, 4), rank=3, seed=1, tolerance=1e-9, checks=("sa",)
        )
        for seed in (1, 2, 3):
            margin = cli._check_sa(cfg, seed)
            rho = samples[-1]
            assert rho._root is not None and rho._data is None
            regrouped = sl.DensityMatrix((2, 12), rho.data)
            assert abs(margin - sl.mutual_information(regrouped)) <= 1e-12

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_certify_tolerance_exits_one(self, tmp_path, spec_file, tol):
        state = tmp_path / "state.json"
        sl.save_state(str(state), sl.build_saturating(sl.load_spec(spec_file)))
        res = run_cli("certify", str(state), spec_file, "--tol", tol)
        assert res.returncode == 1
        assert res.stdout == ""
        assert "error" in res.stderr

    def test_seed_required(self, bell_file):
        res = run_cli("discord", bell_file)
        assert res.returncode == 1

    def test_unknown_check(self):
        res = run_cli(
            "campaign", "--checks", "nope", "--n", "2", "--dims", "2,2,2", "--seed", "1"
        )
        assert res.returncode == 1

    @pytest.mark.parametrize(
        "args",
        [
            ("discord", "{mixed}", "--seed", "-5"),
            ("campaign", "--checks", "ssa", "--n", "2", "--dims", "2,2,2", "--seed", "-1"),
        ],
        ids=["discord", "campaign"],
    )
    def test_negative_seed_exits_one(self, args, mixed_state_file):
        res = run_cli(*[a.format(mixed=mixed_state_file) for a in args])
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "argv, code, bound",
        [
            (("sweep", "--figure", "a", "--steps", str(10**20)), 1, "at most 1024"),
            (
                ("campaign", "--checks", "ssa", "--n", str(10**20), "--dims", "2,2,2"),
                1,
                "at most 1000000",
            ),
            (
                ("campaign", "--checks", "ssa", "--n", "2", "--dims", f"{10**20},2,2"),
                2,
                "at most 1024",
            ),
        ],
        ids=["sweep-steps", "campaign-samples", "campaign-side"],
    )
    def test_huge_integers_refused_without_traceback(self, capsys, argv, code, bound):
        # each is refused by its config before anything is allocated
        args = argv if argv[0] == "sweep" else argv + ("--seed", "1")
        assert main(list(args)) == code
        out = capsys.readouterr()
        assert out.out == ""
        assert "Traceback" not in out.err
        assert bound in out.err

    @pytest.mark.parametrize("side", [10**6, 2**63], ids=["huge", "past-int64"])
    def test_huge_spec_dims_refused_without_traceback(self, tmp_path, capsys, side):
        # the spec refuses the state side before the state is allocated
        spec = sl.random_saturating_spec((2, 2, 2), np.random.default_rng(1))
        record = sl.structure.spec_to_dict(spec)
        record["dims"][1] = side
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(record))
        assert main(["build", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "Traceback" not in out.err
        assert f"at most {MAX_STATE_SIDE}, got {8 * side // 2}" in out.err

    def test_input_bounds_admit_their_callers(self):
        assert SweepAxis("beta2", steps=MAX_SWEEP_STEPS).steps == 1024
        config = CampaignConfig(
            samples=MAX_SAMPLES, dims=(2, 512), rank=None, seed=1, tolerance=1e-9, checks=("sa",)
        )
        assert (config.samples, math.prod(config.dims)) == (MAX_SAMPLES, MAX_STATE_SIDE)
        with pytest.raises(ConfigError, match="at most 1024"):
            SweepAxis("beta2", steps=MAX_SWEEP_STEPS + 1)
        with pytest.raises(ConfigError, match="at most 1000000"):
            CampaignConfig(
                samples=MAX_SAMPLES + 1, dims=(2, 2), rank=None, seed=1, tolerance=1e-9,
                checks=("sa",),
            )
        with pytest.raises(CapabilityError, match="at most 1024, got 1026"):
            CampaignConfig(
                samples=2, dims=(2, 513), rank=None, seed=1, tolerance=1e-9, checks=("sa",)
            )

    def test_negative_seed_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="seed"):
            CampaignConfig(
                samples=2, dims=(2, 2), rank=None, seed=-1, tolerance=1e-9, checks=("sa",)
            )

    def test_wrong_arity_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="arity"):
            CampaignConfig(
                samples=2, dims=(2, 2), rank=None, seed=1, tolerance=1e-9, checks=("ssa",)
            )

    def test_wrong_arity_for_check(self):
        res = run_cli(
            "campaign", "--checks", "ssa", "--n", "2", "--dims", "2,2", "--seed", "1"
        )
        assert res.returncode == 1

    def test_tgap_on_bipartite_is_validation_error(self, bell_file):
        res = run_cli("tgap", bell_file)
        assert res.returncode == 1


class TestMalformedFiles:
    # malformed fields must end as a one-line `error:` and exit 1, with no
    # traceback and nothing on stdout

    @pytest.fixture
    def one_block_spec(self):
        # weight 1 on dims (1, 2, 2): loosely typed variants of its fields
        # still describe a buildable spec
        spec = sl.random_saturating_spec([1, 2, 2], np.random.default_rng(3), max_blocks=1)
        return sl.structure.spec_to_dict(spec)

    @staticmethod
    def _assert_parse_failure(res):
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:")
        assert "Traceback" not in res.stderr

    def test_one_block_spec_builds(self, tmp_path, one_block_spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(one_block_spec))
        assert run_cli("build", str(path)).returncode == 0

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("weight", lambda w: [w]),
            ("weight", lambda w: str(w)),
            ("weight", lambda w: True),
            ("partition", lambda p: 5),
            ("partition", lambda p: ["a"] + p[1:]),
            ("partition", lambda p: [float(x) for x in p]),
            ("embedB", lambda o: "x"),
            ("embedB", lambda o: 0.7),
            ("embedC", lambda o: False),
            ("psi", lambda s: [1, 2]),
            ("rhoZ", lambda s: "state"),
        ],
        ids=[
            "weight-list", "weight-string", "weight-bool", "partition-int",
            "partition-string-entry", "partition-floats", "embedB-string",
            "embedB-float", "embedC-bool", "psi-list", "rhoZ-string",
        ],
    )
    def test_bad_spec_block_field(self, tmp_path, one_block_spec, field, bad):
        block = one_block_spec["blocks"][0]
        block[field] = bad(block[field])
        path = tmp_path / "bad_spec.json"
        path.write_text(json.dumps(one_block_spec))
        self._assert_parse_failure(run_cli("build", str(path)))

    def test_bool_spec_dims(self, tmp_path, one_block_spec):
        one_block_spec["dims"][0] = True
        path = tmp_path / "bad_spec.json"
        path.write_text(json.dumps(one_block_spec))
        self._assert_parse_failure(run_cli("build", str(path)))

    @pytest.mark.parametrize(
        "command, text",
        [
            ("entropy", b"\xff\xfe{}"),
            ("entropy", b"[" * 100000 + b"]" * 100000),
            ("build", b"\xff\xfe{}"),
            ("build", b'{"dims": [2, 2, 2], "blocks": ' + b"[" * 100000 + b"]" * 100000 + b"}"),
        ],
        ids=["state-not-utf8", "state-nested-deep", "spec-not-utf8", "spec-nested-deep"],
    )
    def test_unparseable_file(self, tmp_path, command, text):
        path = tmp_path / "unparseable.json"
        path.write_bytes(text)
        res = run_cli(command, str(path))
        self._assert_parse_failure(res)
        assert str(path) in res.stderr

    @pytest.mark.parametrize(
        "state",
        [
            {"dims": [True, 2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
            {"dims": [2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, False]]]},
            {"dims": [2], "vector": [[True, 0], [0, 0]]},
        ],
        ids=["bool-dims", "bool-matrix-entry", "bool-vector-entry"],
    )
    def test_bad_state_field(self, tmp_path, state):
        path = tmp_path / "bad_state.json"
        path.write_text(json.dumps(state))
        self._assert_parse_failure(run_cli("entropy", str(path)))
