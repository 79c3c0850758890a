"""The three benchmark workloads: batches of items built from a seed.

Batch b of a run is built from (seed, b), so the batches of one run have the
same mix of item kinds but different inputs, and a run samples more states
than one batch holds.

Every item runs one unit of user-visible work and returns the checks that
grade it against an independent oracle: a closed form (two-block gap,
Wootters EOF), an identity (Koashi-Winter, purification duality) or an
inequality (strong subadditivity, concavity).  The tolerances are those of
the acceptance suite.

Item counts per batch come from the tier-1 tests that exercise the same
path: the number of cases such a test runs, divided by the workload's scale
and rounded, so the kinds of a workload keep the ratios of their tier-1
case counts.  A path tier-1 runs only once or twice runs once per batch.

Importing this module imports numpy and ssa_lab, so the benchmark imports it
inside the timed set-up.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

import ssa_lab as sl
from ssa_lab import cli as sl_cli


class Check(NamedTuple):
    """Passes when error <= tol.  Inequalities report their violation (0 when
    satisfied) as the error.  `bits` marks an error in bits (a difference of
    entropies or a margin violation); pass/fail flags and counts are not, and
    stay out of err_max_bits."""

    what: str
    error: float
    tol: float
    bits: bool = True


# Tier-1 case counts are divided by these to give the items per batch.
# corr uses 50, the largest scale at which its rarest kind (criterion 10,
# 50 cases) still gets one item.  gap uses 100: at 50 a run holds 40
# full-rank 4x4x4 states, and the tail percentile lands on the eighth or
# ninth slowest of them, right where their slow mode (see build_gap) begins,
# so the tail flipped between the modes from run to run.  With 20 it lands
# on the seventh or eighth slowest, inside the common mode.
GAP_SCALE = 100
CORR_SCALE = 50


def _scaled(tier1_cases: int, scale: int) -> int:
    return max(1, round(tier1_cases / scale))


@dataclass(frozen=True)
class Item:
    kind: str
    run: Callable[[], list[Check]]


@dataclass
class Workload:
    items: list[Item]
    warmup: list[Item]
    # kinds run only by the traced invocation (in-process CLI calls)
    traced_extra: list[Item] = field(default_factory=list)


# A batch key is (workload seed, batch index).
Key = tuple[int, int]


def _seeds(key: Key, stream: int, n: int) -> list[int]:
    """n item seeds for one item kind, reproducible from the batch key."""
    rng = np.random.default_rng([*key, stream])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def _spread_kinds(items: list[Item], key: Key) -> list[Item]:
    """Seeded shuffle of the batch.  Each kind's items then sample the whole
    batch duration, not one short stretch of it, so a percentile over them
    is not set by how busy the host was in that stretch."""
    order = np.random.default_rng([*key, 0]).permutation(len(items))
    return [items[i] for i in order]


def _entropy_bits(matrix: np.ndarray) -> float:
    """Entropy straight from numpy's spectrum, independent of ssa_lab.entropy."""
    w = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2.0)
    w = w[w > 1e-12]
    return float(-(w * np.log2(w)).sum())


# --- gap: the entropic pipeline, no optimizer --------------------------------

# (dims, rank) cells, rank None is full rank.  Criterion 04 runs 1000 states
# per (dims, rank) cell; every cell gets that count, scaled.  Its dims are
# 2x2x2, 2x2x4 and 2x4x4; 4x4x4 takes the place of 2x2x4 here, because the
# full-rank 4x4x4 states build a 4096^2 outer product today, the largest
# working set.  After the two sweeps they are the slowest items, so they set
# the tail.
GAP_DENSITY_CELLS = (
    ((2, 2, 2), None), ((2, 2, 2), 2),
    ((2, 4, 4), None), ((2, 4, 4), 2),
    ((4, 4, 4), None), ((4, 4, 4), 2),
)
GAP_DENSITY_PER_CELL = _scaled(1000, GAP_SCALE)
# criterion 01: 500 two-block states against the closed form
GAP_TWO_BLOCK = _scaled(500, GAP_SCALE)
# criterion 07: 200 saturating specs, cycling through these dims across the
# batches of a run
GAP_SATURATING_DIMS = ((2, 2, 2), (2, 3, 3), (2, 4, 4), (3, 3, 4), (2, 2, 4))
GAP_SATURATING = _scaled(200, GAP_SCALE)
# test_purify runs the duality on 10 states, which scales below one; one
# item per shape keeps the 2x4x4 purifications timed as well
GAP_DUALITY = (((2, 2, 2), 2), ((2, 2, 2), None), ((2, 4, 4), 2), ((2, 4, 4), None))
# criterion 03: each figure once at 64 steps
GAP_SWEEP_STEPS = 64
# criterion 05: 500 concavity ensembles, as samples of one campaign
GAP_CAMPAIGN_SAMPLES = _scaled(500, GAP_SCALE)


def _gap_density(dims, rank, seed) -> list[Check]:
    rho = sl.random_density(dims, rank=rank, seed=seed)
    margin = min(sl.t_gap(rho).t_a, sl.ssa_gap_form1(rho))
    return [Check("ssa margin >= -1e-9", max(0.0, -margin), 1e-9)]


def _two_block_params(rng: np.random.Generator) -> sl.TwoBlockParams:
    return sl.TwoBlockParams(
        p1=float(rng.uniform(0.02, 0.98)),
        alpha1=float(rng.uniform()),
        beta2=float(rng.uniform()),
        b=float(rng.uniform()),
        lambda1=float(rng.uniform()),
        lambda2=float(rng.uniform()),
    )


def _gap_two_block(params) -> list[Check]:
    numeric = sl.t_gap(sl.two_block_state(params)).t_a
    closed = sl.gap_closed_form(params)
    return [Check("t_gap vs closed form", abs(numeric - closed), 1e-8)]


def _gap_saturating(dims, seed) -> list[Check]:
    spec = sl.random_saturating_spec(dims, np.random.default_rng(seed))
    cert = sl.certify(sl.build_saturating(spec), spec)
    return [
        Check("certificate passed", 0.0 if cert.passed else 1.0, 0.0, bits=False),
        Check("saturating gap <= 1e-8", max(0.0, cert.gap_witness), 1e-8),
    ]


def _gap_duality(dims, rank, seed) -> list[Check]:
    rho = sl.random_density(dims, rank=rank, seed=seed)
    ext = sl.extend(rho)
    s_b = _entropy_bits(sl.partial_trace(rho, {1}).data)
    s_c = _entropy_bits(sl.partial_trace(rho, {2}).data)
    return [
        Check("S(A,BE) = S(C)", abs(sl.von_neumann_entropy(ext.rho_a_btilde) - s_c), 1e-9),
        Check("S(A,CE) = S(B)", abs(sl.von_neumann_entropy(ext.rho_a_ctilde) - s_b), 1e-9),
    ]


def _gap_sweep(figure, steps) -> list[Check]:
    grid = sl.sweep_figure(figure, steps=steps)
    dev = float(np.max(np.abs(grid.closed_form - grid.numeric)))
    return [Check(f"sweep {figure} closed vs numeric", dev, 1e-8)]


def _gap_campaign(samples, seed) -> list[Check]:
    cfg = sl_cli.CampaignConfig(
        samples=samples,
        dims=(2, 2, 2),
        rank=None,
        seed=seed,
        tolerance=1e-9,
        checks=("sa", "ssa", "concavity"),
    )
    record = sl_cli.run_campaign(cfg)
    return [
        Check(f"campaign {name} margin >= -1e-9", max(0.0, -entry["worst_margin"]), 1e-9)
        for name, entry in record["checks"].items()
    ]


def build_gap(key: Key) -> Workload:
    seed = key[0]
    items: list[Item] = []
    for k, (dims, rank) in enumerate(GAP_DENSITY_CELLS):
        for s in _seeds(key, 10 + k, GAP_DENSITY_PER_CELL):
            items.append(Item("random_density", partial(_gap_density, dims, rank, s)))
    rng = np.random.default_rng([*key, 2])
    for _ in range(GAP_TWO_BLOCK):
        items.append(Item("two_block", partial(_gap_two_block, _two_block_params(rng))))
    for k, s in enumerate(_seeds(key, 3, GAP_SATURATING)):
        dims = GAP_SATURATING_DIMS[(key[1] * GAP_SATURATING + k) % len(GAP_SATURATING_DIMS)]
        items.append(Item("saturating", partial(_gap_saturating, dims, s)))
    for (dims, rank), s in zip(GAP_DUALITY, _seeds(key, 4, len(GAP_DUALITY))):
        items.append(Item("duality", partial(_gap_duality, dims, rank, s)))
    items.append(
        Item("campaign", partial(_gap_campaign, GAP_CAMPAIGN_SAMPLES, _seeds(key, 5, 1)[0]))
    )
    # The sweeps run after the shuffled items.  On the baseline VM a full-rank
    # 4x4x4 state built more than about 2 s after the previous one takes 2-3x
    # as long (the freed 268 MB has gone back to the host), and each 4 s sweep
    # opens such a pause.  Shuffled in, the sweeps added up to four such slow
    # states per run, at random, to the one in ten that is slow anyway.
    sweeps = [Item("sweep", partial(_gap_sweep, f, GAP_SWEEP_STEPS)) for f in ("a", "b")]
    warmup = [
        Item("random_density", partial(_gap_density, (4, 4, 4), None, seed)),
        Item("two_block", partial(_gap_two_block, sl.DEFAULT_PARAMS)),
        Item("saturating", partial(_gap_saturating, (2, 2, 2), seed)),
        Item("duality", partial(_gap_duality, (2, 2, 2), 2, seed)),
        Item("sweep", partial(_gap_sweep, "a", 2)),
        Item("campaign", partial(_gap_campaign, 2, seed)),
    ]
    return Workload(_spread_kinds(items, key) + sweeps, warmup)


# --- corr: the optimizer pipeline --------------------------------------------

# (items per batch, optimizer settings, tolerance).  Counts and settings are
# those of the tier-1 tests: criterion 08 (100 conservation checks),
# 10 (50 Theorem-1 audits) and 12 (100 convex roofs); discord those of the
# Koashi-Winter agreement test in test_qcorr (200 discord calls).
CORR_DISCORD = (_scaled(200, CORR_SCALE), dict(restarts=10), 1e-4)
CORR_CONSERVATION = (_scaled(100, CORR_SCALE), dict(restarts=20), 2e-4)
CORR_EOF = (_scaled(100, CORR_SCALE), dict(restarts=3, max_evals=800), 1e-4)
CORR_THEOREM1 = (_scaled(50, CORR_SCALE), dict(restarts=4, max_evals=1000), 5e-4)
# The audits run criterion 10's own cases, state seed 10_000 + k with
# optimizer seed 10_500 + k, k < 50, in an order drawn from the run's seed.
# At these settings the audit's 2x4 discord stops in a local minimum on
# about one random rank-2 state in fifty (|line4 - t_gap| up to 2.6e-3),
# which no other corr kind does; see "Known defect" in README.md.
CORR_THEOREM1_CASES = 50
# warm-up runs every code path once at minimal optimizer effort
CORR_WARMUP = dict(restarts=1, max_evals=50)


def _corr_discord(rho, oracle, opt, tol) -> list[Check]:
    value = sl.discord(rho, 1, sl.OptimizerConfig(**opt)).discord
    return [Check("discord vs KW of purification", abs(value - oracle), tol)]


def _corr_conservation(psi, opt, tol) -> list[Check]:
    lhs, rhs = sl.conservation_check(psi, sl.OptimizerConfig(**opt))
    return [Check("E(AB)+E(AC) = D(AB)+D(AC)", abs(lhs - rhs), tol)]


def _corr_eof(rho, oracle, opt, tol) -> list[Check]:
    roof = sl.eof_convex_roof(rho, config=sl.OptimizerConfig(**opt))
    return [Check("convex roof vs Wootters", abs(roof - oracle), tol)]


def _corr_theorem1(rho, gap, opt, tol) -> list[Check]:
    audit = sl.theorem1_audit(rho, sl.OptimizerConfig(**opt))
    return [
        Check("line4 vs t_gap", abs(audit.line4 - gap), tol),
        Check("entanglement increments >= -5e-4",
              max(0.0, -min(audit.delta_e_b, audit.delta_e_c)), tol),
    ]


def build_corr(key: Key) -> Workload:
    seed = key[0]
    items: list[Item] = []
    count, opt, tol = CORR_DISCORD
    for s in _seeds(key, 20, count):
        rho = sl.random_density([2, 2], rank=2, seed=s)
        oracle = sl.discord_via_kw(sl.purify(rho).psi, 1)
        items.append(Item("discord", partial(_corr_discord, rho, oracle, {**opt, "seed": s}, tol)))
    count, opt, tol = CORR_CONSERVATION
    for s in _seeds(key, 21, count):
        psi = sl.random_pure([2, 2, 2], seed=s)
        items.append(Item("conservation", partial(_corr_conservation, psi, {**opt, "seed": s}, tol)))
    count, opt, tol = CORR_EOF
    for s in _seeds(key, 22, count):
        rho = sl.random_density([2, 2], rank=2, seed=s)
        oracle = sl.eof_two_qubit(rho)
        items.append(Item("eof_roof", partial(_corr_eof, rho, oracle, {**opt, "seed": s}, tol)))
    count, opt, tol = CORR_THEOREM1
    order = np.random.default_rng([seed, 23]).permutation(CORR_THEOREM1_CASES)
    for j in range(count):
        k = int(order[(key[1] * count + j) % CORR_THEOREM1_CASES])
        rho = sl.random_density([2, 2, 2], rank=2, seed=10_000 + k)
        gap = sl.t_gap(rho).t_a
        items.append(Item("theorem1", partial(
            _corr_theorem1, rho, gap, {**opt, "seed": 10_500 + k}, tol)))
    rho2 = sl.random_density([2, 2], rank=2, seed=seed)
    rho3 = sl.random_density([2, 2, 2], rank=2, seed=seed)
    warm = {**CORR_WARMUP, "seed": seed}
    warmup = [
        Item("discord", partial(_corr_discord, rho2, 0.0, warm, 1.0)),
        Item("conservation", partial(_corr_conservation, sl.random_pure([2, 2, 2], seed=seed), warm, 1.0)),
        Item("eof_roof", partial(_corr_eof, rho2, 0.0, warm, 1.0)),
        Item("theorem1", partial(_corr_theorem1, rho3, 0.0, warm, 1.0)),
    ]
    return Workload(_spread_kinds(items, key), warmup)


# --- cli: a fixed script of `python -m ssa_lab.cli` subprocesses ------------

CLI_SUBCOMMANDS = (
    "entropy", "tgap", "discord", "eof", "kw", "build", "certify", "sweep", "campaign",
)


@dataclass(frozen=True)
class CliCall:
    """One CLI invocation: arguments, expected exit code, stdout check."""

    kind: str
    argv: tuple[str, ...]
    code: int = 0
    check: Callable[[str], list[Check]] | None = None


def _json_check(what: str, key: str, oracle: float, tol: float):
    def check(stdout: str) -> list[Check]:
        return [Check(what, abs(float(json.loads(stdout)[key]) - oracle), tol)]
    return check


def _certify_check(stdout: str) -> list[Check]:
    record = json.loads(stdout)
    return [
        Check("certificate passed", 0.0 if record["passed"] else 1.0, 0.0, bits=False),
        Check("saturating gap <= 1e-8", max(0.0, float(record["gap"]["t_a"])), 1e-8),
    ]


def _kw_check(stdout: str) -> list[Check]:
    return [Check("KW gap of a pure state", abs(float(json.loads(stdout)["gap"])), 1e-4)]


def _sweep_check(steps: int):
    def check(stdout: str) -> list[Check]:
        rows = stdout.strip().splitlines()[1:]
        dev = max(abs(float(c) - float(n)) for _, _, c, n in (r.split(",") for r in rows))
        return [
            Check("sweep cell count", float(abs(len(rows) - steps * steps)), 0.0, bits=False),
            Check("sweep closed vs numeric", dev, 1e-8),
        ]
    return check


def _campaign_check(stdout: str) -> list[Check]:
    checks = json.loads(stdout)["checks"]
    return [
        Check(f"campaign {name} margin >= -1e-9", max(0.0, -float(entry["worst_margin"])), 1e-9)
        for name, entry in checks.items()
    ]


class CliScript:
    """State files, CLI calls and oracles of the cli workload.

    The files are rewritten at the start of every batch (the `save_state`
    item), so each batch is the whole user round trip: write inputs, run the
    commands, read their records.
    """

    def __init__(self, key: Key, workdir: str, env: dict[str, str]):
        self.workdir = workdir
        self.env = env
        s = _seeds(key, 30, 8)
        rng = np.random.default_rng([*key, 31])
        self.states = {
            "entropy.json": sl.random_density([2, 4], seed=s[0]),
            "discord.json": sl.random_density([2, 2], rank=2, seed=s[1]),
            "eof.json": sl.random_density([2, 2], rank=2, seed=s[2]),
            "kw.json": sl.random_pure([2, 2, 2], seed=s[3]),
            "envelope.json": sl.random_density([3, 2, 2], seed=s[4]),
        }
        params = [_two_block_params(rng) for _ in range(2)]
        for k, p in enumerate(params):
            self.states[f"twoblock{k}.json"] = sl.two_block_state(p)
        self.spec = sl.random_saturating_spec((2, 3, 3), rng)
        ent_oracle = _entropy_bits(self.states["entropy.json"].data)
        discord_oracle = sl.discord_via_kw(sl.purify(self.states["discord.json"]).psi, 1)
        eof_oracle = sl.eof_two_qubit(self.states["eof.json"])
        discord_argv = ("discord", self._p("discord.json"), "--seed", str(s[5]), "--restarts", "10")
        self.calls = [
            CliCall("entropy", ("entropy", self._p("entropy.json")),
                    check=_json_check("entropy vs numpy spectrum", "entropy", ent_oracle, 1e-9)),
            *(
                CliCall("tgap", ("tgap", self._p(f"twoblock{k}.json")),
                        check=_json_check("tgap vs closed form", "t_a", sl.gap_closed_form(p), 1e-8))
                for k, p in enumerate(params)
            ),
            CliCall("build", ("build", self._p("spec.json"), "--out", self._p("built.json"))),
            CliCall("certify", ("certify", self._p("built.json"), self._p("spec.json")),
                    check=_certify_check),
            CliCall("discord", discord_argv,
                    check=_json_check("discord vs KW of purification", "discord", discord_oracle, 1e-4)),
            CliCall("eof", ("eof", self._p("eof.json"), "--method", "roof", "--seed", str(s[6]),
                            "--restarts", "3", "--max-evals", "800"),
                    check=_json_check("convex roof vs Wootters", "eof", eof_oracle, 1e-4)),
            CliCall("kw", ("kw", self._p("kw.json"), "--seed", str(s[7]), "--restarts", "10"),
                    check=_kw_check),
            CliCall("sweep", ("sweep", "--figure", "a", "--steps", "16"), check=_sweep_check(16)),
            CliCall("campaign", ("campaign", "--checks", "ssa,concavity", "--n", "20",
                                 "--dims", "2,2,2", "--seed", str(s[5])),
                    check=_campaign_check),
            CliCall("malformed", ("tgap", self._p("malformed.json")), code=1),
            CliCall("envelope", ("kw", self._p("envelope.json"), "--seed", "1"), code=2),
            CliCall("repeat", discord_argv),
        ]

    def _p(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write_inputs(self) -> list[Check]:
        for name, state in self.states.items():
            sl.save_state(self._p(name), state)
        sl.save_spec(self._p("spec.json"), self.spec)
        with open(self._p("malformed.json"), "w", encoding="utf-8") as fh:
            fh.write('{"dims": [2, 2, 2], "matrix": [[')
        return []

    def run_subprocess(self, call: CliCall, outputs: dict[str, str]) -> list[Check]:
        res = subprocess.run(
            [sys.executable, "-m", "ssa_lab.cli", *call.argv],
            capture_output=True, text=True, env=self.env, cwd=self.workdir, timeout=120,
        )
        outputs[call.kind] = res.stdout
        return self._grade(call, res.returncode, res.stdout, outputs)

    def run_inproc(self, call: CliCall) -> list[Check]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = sl_cli.main(list(call.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return self._grade(call, code, out.getvalue(), {})

    @staticmethod
    def _grade(call: CliCall, code: int, stdout: str, outputs: dict[str, str]) -> list[Check]:
        if code != call.code:
            raise RuntimeError(f"{call.kind}: exit code {code}, expected {call.code}")
        if call.kind == "repeat" and stdout != outputs.get("discord"):
            raise RuntimeError("repeat: seeded stdout differs from the first run")
        return call.check(stdout) if call.check else []


def build_cli(key: Key, workdir: str, env: dict[str, str]) -> Workload:
    script = CliScript(key, workdir, env)
    outputs: dict[str, str] = {}
    items = [Item("save_state", script.write_inputs)]
    items += [Item(f"proc.{c.kind}", partial(script.run_subprocess, c, outputs)) for c in script.calls]
    first = {c.kind: c for c in script.calls}
    traced_extra = [
        Item(f"inproc.{cmd}", partial(script.run_inproc, first[cmd])) for cmd in CLI_SUBCOMMANDS
    ]
    warmup = [Item("save_state", script.write_inputs),
              Item("proc.entropy", partial(script.run_subprocess, first["entropy"], {}))]
    return Workload(items, warmup, traced_extra=traced_extra)


def build(name: str, seed: int, batch: int, workdir: str, env: dict[str, str]) -> Workload:
    """Batch `batch` of workload `name` for a run with seed `seed`."""
    key = (seed, batch)
    if name == "gap":
        return build_gap(key)
    if name == "corr":
        return build_corr(key)
    return build_cli(key, workdir, env)
