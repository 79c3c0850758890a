"""Command-line front-end: state-file I/O, computations as subcommands,
randomized property campaigns, and sweep emission.

Machine-readable output (a JSON record, a state file, or CSV) goes to
stdout; a one-line human summary goes to stderr.  Exit codes: 0 on
success, 1 on validation/parse/config failure, 2 on capability errors.
Randomized subcommands require an explicit --seed; identical flags and
seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

# qcorr, structure and twoblock are imported inside the handlers and campaign
# checks that call them, so each call loads only the modules it runs.
from .errors import CapabilityError, ConfigError, SsaLabError
from .entropy import (
    Ensemble,
    _state_entropies,
    concavity_check,
    ssa_gap_form1,
    t_gap,
    von_neumann_entropy,
)
from .optimize import OptimizerConfig
from .qmat import (
    CERTIFY_TOL,
    MAX_STATE_SIDE,
    DensityMatrix,
    _as_dims,
    _as_int,
    _as_tolerance,
    density_to_dict,
    load_density,
    random_density,
    random_pure,
    save_state,
)


MAX_SAMPLES = 1_000_000


@dataclass(frozen=True)
class CampaignConfig:
    """Settings for one randomized property campaign.  Each sample runs
    ``optimizer`` with the sample's own seed plus one."""

    samples: int
    dims: tuple[int, ...]
    rank: int | None
    seed: int
    tolerance: float
    checks: tuple[str, ...]
    optimizer: OptimizerConfig = OptimizerConfig()

    def __post_init__(self) -> None:
        samples = _as_int(self.samples, "sample count", 1, ConfigError, MAX_SAMPLES)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", _as_int(self.seed, "seed", 0, ConfigError))
        object.__setattr__(self, "dims", _as_dims(self.dims))
        if self.rank is not None:
            object.__setattr__(self, "rank", _as_int(self.rank, "rank", 1, ConfigError))
        object.__setattr__(self, "tolerance", _as_tolerance(self.tolerance, "tolerance"))
        if not self.checks:
            raise ConfigError("check set must not be empty")
        unknown = [c for c in self.checks if c not in CHECK_NAMES]
        if unknown:
            raise ConfigError(
                f"unknown checks {unknown}; choose from {', '.join(CHECK_NAMES)}"
            )
        for check in self.checks:
            arities = _CHECKS[check][0]
            if len(self.dims) not in arities:
                raise ConfigError(
                    f"check {check!r} needs dims of arity {arities}, got {self.dims}"
                )
        _as_int(math.prod(self.dims), "state side", 1, CapabilityError, MAX_STATE_SIDE)


# --- campaign checks ---------------------------------------------------------
#
# Each check maps a per-sample seed to a margin; a sample violates the check
# when its margin drops below -tolerance (equality-style checks fold the
# absolute deviation into the margin as tolerance - |dev|).


def _sample_state(cfg: CampaignConfig, seed: int) -> DensityMatrix:
    return random_density(cfg.dims, rank=cfg.rank, seed=seed)


def _check_sa(cfg: CampaignConfig, seed: int) -> float:
    legs = range(len(cfg.dims))
    s_a, s_rest, s_all = _state_entropies(_sample_state(cfg, seed), ((0,), legs[1:], legs))
    return s_a + s_rest - s_all


def _check_ssa(cfg: CampaignConfig, seed: int) -> float:
    rho = _sample_state(cfg, seed)
    return min(t_gap(rho).t_a, ssa_gap_form1(rho))


def _check_concavity(cfg: CampaignConfig, seed: int) -> float:
    rng = np.random.default_rng(seed)
    members = [
        random_density(cfg.dims, rank=cfg.rank, seed=rng) for _ in range(2)
    ]
    w = float(rng.uniform(0.05, 0.95))
    lhs, rhs = concavity_check(Ensemble([w, 1.0 - w], members))
    return lhs - rhs


def _check_kw(cfg: CampaignConfig, seed: int) -> float:
    from .qcorr import kw_gap

    rho = _sample_state(cfg, seed)
    return kw_gap(rho, replace(cfg.optimizer, seed=seed + 1)).gap


def _check_conservation(cfg: CampaignConfig, seed: int) -> float:
    from .qcorr import conservation_check

    psi = random_pure(cfg.dims, seed)
    lhs, rhs = conservation_check(psi, replace(cfg.optimizer, seed=seed + 1))
    return cfg.tolerance - abs(lhs - rhs)


def _check_theorem1(cfg: CampaignConfig, seed: int) -> float:
    from .qcorr import theorem1_audit

    rho = _sample_state(cfg, seed)
    audit = theorem1_audit(rho, replace(cfg.optimizer, seed=seed + 1))
    margin = cfg.tolerance - abs(audit.line4 - audit.t_a)
    return min(margin, audit.delta_e_b, audit.delta_e_c)


# check name -> (accepted dims arities, margin function), in report order
_CHECKS = {
    "sa": ((2, 3), _check_sa),
    "ssa": ((3,), _check_ssa),
    "concavity": ((3,), _check_concavity),
    "kw": ((3,), _check_kw),
    "conservation": ((3,), _check_conservation),
    "theorem1": ((3,), _check_theorem1),
}
CHECK_NAMES = tuple(_CHECKS)


def run_campaign(cfg: CampaignConfig) -> dict:
    """Run the configured checks over seeded samples; deterministic output."""
    seeds = [int(s) for s in np.random.SeedSequence(cfg.seed).generate_state(cfg.samples)]
    results = {}
    for check, (_, fn) in _CHECKS.items():
        if check not in cfg.checks:
            continue
        margins = [fn(cfg, s) for s in seeds]
        worst = min(margins)
        violations = sum(1 for m in margins if m < -cfg.tolerance)
        results[check] = {
            "samples": cfg.samples,
            "violations": violations,
            "worst_margin": worst,
        }
    return {
        "dims": list(cfg.dims),
        "rank": cfg.rank,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "tolerance": cfg.tolerance,
        "checks": results,
    }


# --- subcommand plumbing -----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the exit-code contract
    # reserves 2 for capability errors, so flag problems exit 1 instead.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(record: dict, summary: str) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    sys.stderr.write(summary + "\n")


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"--dims expects comma-separated integers, got {text!r}")


def _optimizer_from_args(args: argparse.Namespace) -> OptimizerConfig:
    return OptimizerConfig(restarts=args.restarts, max_evals=args.max_evals, seed=args.seed)


def _cmd_entropy(args: argparse.Namespace) -> None:
    rho = load_density(args.state)
    value = von_neumann_entropy(rho)
    _emit(
        {"dims": list(rho.dims), "entropy": value},
        f"S = {value:.12g} bits on dims {list(rho.dims)}",
    )


def _cmd_tgap(args: argparse.Namespace) -> None:
    rho = load_density(args.state)
    report = t_gap(rho)
    _emit(
        {
            "t_a": report.t_a,
            "components": report.components,
        },
        f"T^(a) = {report.t_a:.12g} bits",
    )


def _cmd_discord(args: argparse.Namespace) -> None:
    from .qcorr import discord

    rho = load_density(args.state)
    result = discord(rho, measured=args.measured, config=_optimizer_from_args(args))
    _emit(
        {
            "discord": result.discord,
            "classical_correlation": result.classical_correlation,
            "measured": args.measured,
            "restarts_used": result.restarts_used,
            "converged": result.converged,
            "nfev": result.nfev,
        },
        f"D = {result.discord:.12g} bits (measured side {args.measured})",
    )


def _cmd_eof(args: argparse.Namespace) -> None:
    from .qcorr import eof_convex_roof, eof_two_qubit

    rho = load_density(args.state)
    config = _optimizer_from_args(args)  # bad flags fail on every method
    method = args.method
    if method == "auto":
        method = "wootters" if rho.dims == (2, 2) else "roof"
    if method == "wootters":
        value = eof_two_qubit(rho)
        record = {"eof": value, "method": "wootters", "exact": True}
    else:
        value = eof_convex_roof(rho, config=config)
        record = {"eof": value, "method": "convex_roof", "exact": False}
    _emit(record, f"E = {value:.12g} bits ({record['method']})")


def _cmd_kw(args: argparse.Namespace) -> None:
    from .qcorr import kw_gap

    rho = load_density(args.state)
    report = kw_gap(rho, config=_optimizer_from_args(args))
    _emit(
        {
            "eof_ab": report.eof_ab,
            "discord_ac": report.discord_ac,
            "cond_entropy_ac": report.cond_entropy_ac,
            "gap": report.gap,
        },
        f"monogamy gap = {report.gap:.12g} bits",
    )


def _cmd_build(args: argparse.Namespace) -> None:
    from .structure import build_saturating, load_spec

    spec = load_spec(args.spec)
    rho = build_saturating(spec)
    summary = f"built state on dims {list(rho.dims)} from {len(spec.blocks)} block(s)"
    if args.out:
        save_state(args.out, rho)
        sys.stderr.write(summary + "\n")
    else:
        _emit(density_to_dict(rho), summary)


def _cmd_certify(args: argparse.Namespace) -> None:
    from .structure import certify, load_spec

    rho = load_density(args.state)
    spec = load_spec(args.spec)
    cert = certify(rho, spec, tol=args.tol)
    verdict = "PASS" if cert.passed else "FAIL"
    _emit(cert.to_dict(), f"certificate: {verdict}")


def _cmd_sweep(args: argparse.Namespace) -> None:
    from .twoblock import sweep_figure

    grid = sweep_figure(args.figure, steps=args.steps)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            grid.write_csv(fh)
    else:
        grid.write_csv(sys.stdout)
    sys.stderr.write(
        f"sweep {args.figure}: {args.steps}x{args.steps} cells "
        f"({grid.axis1.name} x {grid.axis2.name})\n"
    )


def _cmd_campaign(args: argparse.Namespace) -> None:
    cfg = CampaignConfig(
        samples=args.n,
        dims=_parse_dims(args.dims),
        rank=args.rank,
        seed=args.seed,
        tolerance=args.tol,
        checks=tuple(part.strip() for part in args.checks.split(",") if part.strip()),
        optimizer=_optimizer_from_args(args),
    )
    record = run_campaign(cfg)
    total = sum(entry["violations"] for entry in record["checks"].values())
    _emit(record, f"campaign: {total} violation(s) over {cfg.samples} sample(s)")


def _add_optimizer_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--restarts",
        type=int,
        default=OptimizerConfig.restarts,
        help="optimizer restarts; a discord on a measured side of dimension 2 to 4 "
        "polishes at most this many local minima of a fixed scan of bases (97 on a "
        "qubit, 129 at d = 3, 4) and draws no random starts",
    )
    parser.add_argument(
        "--max-evals",
        type=int,
        default=OptimizerConfig.max_evals,
        help="objective evaluations per restart, its start included",
    )
    parser.add_argument("--seed", type=int, required=True, help="random seed (required)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ssa-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("entropy", help="von Neumann entropy of a state file")
    p.add_argument("state")
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser("tgap", help="strong-subadditivity gap of a tripartite state")
    p.add_argument("state")
    p.set_defaults(handler=_cmd_tgap)

    p = sub.add_parser("discord", help="projective quantum discord of a bipartite state")
    p.add_argument("state")
    p.add_argument("--measured", type=int, choices=(0, 1), default=1)
    _add_optimizer_flags(p)
    p.set_defaults(handler=_cmd_discord)

    p = sub.add_parser("eof", help="entanglement of formation of a bipartite state")
    p.add_argument("state")
    p.add_argument("--method", choices=("auto", "wootters", "roof"), default="auto")
    _add_optimizer_flags(p)
    p.set_defaults(handler=_cmd_eof)

    p = sub.add_parser("kw", help="monogamy (Koashi-Winter) gap of a tripartite state")
    p.add_argument("state")
    _add_optimizer_flags(p)
    p.set_defaults(handler=_cmd_kw)

    p = sub.add_parser("build", help="build a state from a block-decomposition spec")
    p.add_argument("spec")
    p.add_argument("--out", default=None, help="write the state file here instead of stdout")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("certify", help="certify a block decomposition against a state")
    p.add_argument("state")
    p.add_argument("spec")
    p.add_argument("--tol", type=float, default=CERTIFY_TOL)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("sweep", help="emit a 2-parameter gap sweep as CSV")
    p.add_argument("--figure", choices=("a", "b"), required=True)
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("campaign", help="randomized property campaign")
    p.add_argument("--checks", required=True, help=f"comma list from: {','.join(CHECK_NAMES)}")
    p.add_argument("--n", type=int, required=True, help="sample count")
    p.add_argument("--dims", required=True, help="comma-separated subsystem dimensions")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument(
        "--tol",
        type=float,
        default=1e-9,
        help="check tolerance (use ~1e-4 for the optimizer-backed checks)",
    )
    _add_optimizer_flags(p)
    p.set_defaults(handler=_cmd_campaign)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    except CapabilityError as exc:
        sys.stderr.write(f"capability error: {exc}\n")
        return 2
    except SsaLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
