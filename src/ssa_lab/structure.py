"""Constructive side of the saturation structure theorem.

States that saturate the tripartite entropy inequality are exactly the
mixtures of blocks |psi_AY><psi_AY| (x) rho_Z, with Y/Z a tensor-factor
partition of each block's B and C spaces, whose B-marginals and C-marginals
are mutually orthogonal across blocks.  This module builds such states from
explicit block specifications, purifies them sector by sector, measures
marginal orthogonality, and certifies whether a proposed decomposition
reproduces a given state.

Embeddings into the global B and C spaces are explicit coordinate-subspace
isometries (a start offset per block and side), which turns the existential
orthogonality condition into a checkable one.  Discovering a decomposition
for an arbitrary input state is out of scope: the certifier validates a
*given* spec, it does not canonicalize or search.

Each block checks its own fields (integer partition and offsets, a weight
in (0, 1]) and the spec checks its dims and the block layout; the spec-file
parser checks JSON shape only and reports a constructor's error as a
ParseError naming the block.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, ParseError, SsaLabError, ValidationError
from .entropy import t_gap
from .purify import purify
from .qmat import (
    DensityMatrix, PureStateVector, _as_dims, _as_int, _as_tolerance, _require_arity,
    density_from_dict, density_to_dict, pure_from_dict, pure_to_dict, random_density, random_pure,
    read_json, trace_out_pure, write_json,
)

ORTHOGONALITY_TOL = 1e-10
CERTIFY_TOL = 1e-8


@dataclass(frozen=True)
class SaturatingBlock:
    """One mixture block: weight, pure part on (A, B^L, C^L), mixed part on
    (B^R, C^R), the partition dims (bl, br, cl, cr), and the coordinate
    offsets embedding the block's B- and C-factors into the global spaces."""

    weight: float
    psi_ay: PureStateVector
    rho_z: DensityMatrix
    partition: tuple[int, int, int, int]
    embed_b: int = 0
    embed_c: int = 0

    def __post_init__(self) -> None:
        weight = self.weight
        if type(weight) is bool or not isinstance(weight, numbers.Real) or not 0 < weight <= 1:
            raise ValidationError(f"block weight must be a number in (0, 1], got {weight!r}")
        partition = _as_dims(self.partition)
        _require_arity(partition, 4, "a block partition")
        bl, br, cl, cr = partition
        object.__setattr__(self, "weight", float(weight))
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "embed_b", _as_int(self.embed_b, "embed_b", 0))
        object.__setattr__(self, "embed_c", _as_int(self.embed_c, "embed_c", 0))
        if len(self.psi_ay.dims) != 3 or self.psi_ay.dims[1:] != (bl, cl):
            raise DimensionError(
                f"pure block dims {self.psi_ay.dims} do not match partition "
                f"(d_A, {bl}, {cl})"
            )
        if self.rho_z.dims != (br, cr):
            raise DimensionError(
                f"mixed block dims {self.rho_z.dims} do not match partition ({br}, {cr})"
            )

    @property
    def d_a(self) -> int:
        return self.psi_ay.dims[0]

    @property
    def b_dim(self) -> int:
        return self.partition[0] * self.partition[1]

    @property
    def c_dim(self) -> int:
        return self.partition[2] * self.partition[3]


@dataclass(frozen=True)
class SaturatingSpec:
    """Block decomposition targeting a state on global dims (d_A, d_B, d_C).

    When ``orthogonal`` is declared the embedding ranges must be pairwise
    disjoint on both the B and the C side, which forces the block marginals
    into orthogonal subspaces and hence a vanishing gap for the built state.
    It defaults to False, as for a spec file without the field.
    """

    dims: tuple[int, int, int]
    blocks: tuple[SaturatingBlock, ...]
    orthogonal: bool = False

    def __post_init__(self) -> None:
        dims = _as_dims(self.dims)
        _require_arity(dims, 3, "SaturatingSpec")
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValidationError("spec must contain at least one block")
        total = sum(b.weight for b in blocks)
        if not abs(total - 1.0) <= 1e-10:
            raise ValidationError(f"block weights sum to {total!r}, expected 1")
        d_a, d_b, d_c = dims
        for k, blk in enumerate(blocks):
            if blk.d_a != d_a:
                raise DimensionError(
                    f"block {k}: A dimension {blk.d_a} != global {d_a}"
                )
            if blk.embed_b + blk.b_dim > d_b:
                raise DimensionError(
                    f"block {k}: B range [{blk.embed_b}, {blk.embed_b + blk.b_dim}) "
                    f"exceeds d_B = {d_b}"
                )
            if blk.embed_c + blk.c_dim > d_c:
                raise DimensionError(
                    f"block {k}: C range [{blk.embed_c}, {blk.embed_c + blk.c_dim}) "
                    f"exceeds d_C = {d_c}"
                )
        if self.orthogonal:
            for side, lo, size in (
                ("B", "embed_b", "b_dim"),
                ("C", "embed_c", "c_dim"),
            ):
                spans = sorted(
                    (getattr(b, lo), getattr(b, lo) + getattr(b, size))
                    for b in blocks
                )
                for (s0, e0), (s1, _) in zip(spans, spans[1:]):
                    if s1 < e0:
                        raise ValidationError(
                            f"orthogonality declared but {side} embedding ranges overlap"
                        )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "blocks", blocks)


def _saturating_root(spec: SaturatingSpec) -> tuple[np.ndarray, list[slice]]:
    """The weighted root T on (A, B, C, E) and each block's ancilla sector.

    T = sum_k sqrt(p_k) |psi^k_AY> (x) |phi^k_ZE>, where |phi^k_ZE> is the
    canonical purification of rho^k_Z in sector k of E; block k fills the
    (A, B^L B^R, C^L C^R) entries at its B and C offsets.  Tracing E out of
    T T^dag gives the spec's mixture, and tracing E out of sector k alone
    gives p_k times block k.
    """
    d_a, d_b, d_c = spec.dims
    purifications = [purify(blk.rho_z) for blk in spec.blocks]
    ends = np.cumsum([0] + [p.d_e for p in purifications])
    sectors = [slice(lo, hi) for lo, hi in zip(ends[:-1], ends[1:])]
    root = np.zeros((d_a, d_b, d_c, int(ends[-1])), dtype=complex)
    for blk, sector, purification in zip(spec.blocks, sectors, purifications):
        bl, br, cl, cr = blk.partition
        psi = blk.psi_ay.amps.reshape(d_a, bl, cl)
        phi = purification.psi.amps.reshape(br, cr, purification.d_e)
        amps = np.einsum("axc,yze->axycze", psi, phi)
        root[
            :,
            blk.embed_b : blk.embed_b + blk.b_dim,
            blk.embed_c : blk.embed_c + blk.c_dim,
            sector,
        ] = np.sqrt(blk.weight) * amps.reshape(d_a, blk.b_dim, blk.c_dim, -1)
    return root, sectors


def purify_saturating(spec: SaturatingSpec) -> PureStateVector:
    """Purify a block decomposition with block-orthogonal ancilla sectors.

    The reduced state on (A, B, C) is the spec's mixture whether or not the
    spec's marginals are orthogonal.
    """
    root, _ = _saturating_root(spec)
    return PureStateVector(spec.dims + (root.shape[3],), root.reshape(-1))


def _root_mixture(spec: SaturatingSpec, root: np.ndarray) -> DensityMatrix:
    """The spec's mixture: E traced out of the root T."""
    return DensityMatrix(spec.dims, trace_out_pure(root, root.shape, (0, 1, 2)))


def build_saturating(spec: SaturatingSpec) -> DensityMatrix:
    """Mixture of the spec's embedded blocks on the spec's global dims."""
    return _root_mixture(spec, _saturating_root(spec)[0])


def _orthogonality_witness(
    spec: SaturatingSpec, root: np.ndarray, sectors: list[slice]
) -> float:
    """Largest ||rho_k rho_k'||_F over blocks k != k', of the B- and the
    C-marginals; block k's marginals are read from its sector of T over
    sqrt(p_k).  0 for a single block."""
    k = len(sectors)
    if k < 2:
        return 0.0
    parts = [root[..., sector] / np.sqrt(blk.weight) for blk, sector in zip(spec.blocks, sectors)]
    off_diagonal = ~np.eye(k, dtype=bool)
    worst = 0.0
    for side in (1, 2):
        stack = np.stack([trace_out_pure(part, part.shape, (side,)) for part in parts])
        overlaps = np.linalg.norm(stack[:, None] @ stack[None], axis=(2, 3))
        worst = max(worst, float(overlaps[off_diagonal].max()))
    return worst


@dataclass(frozen=True)
class Certificate:
    """Outcome of the three independent certification clauses.

    (a) the spec rebuilds the state entry-wise, (b) the spec's block
    marginals are mutually orthogonal, (c) the state's gap vanishes.  The
    clauses are never inferred from one another; a failed clause localizes
    which direction of the equivalence broke.
    """

    rebuild_ok: bool
    rebuild_witness: float
    orthogonality_ok: bool
    orthogonality_witness: float
    gap_ok: bool
    gap_witness: float

    @property
    def passed(self) -> bool:
        return self.rebuild_ok and self.orthogonality_ok and self.gap_ok

    def to_dict(self) -> dict:
        return {
            "rebuild": {"ok": self.rebuild_ok, "max_abs_diff": self.rebuild_witness},
            "orthogonality": {
                "ok": self.orthogonality_ok,
                "max_off_diagonal_overlap": self.orthogonality_witness,
            },
            "gap": {"ok": self.gap_ok, "t_a": self.gap_witness},
            "passed": self.passed,
        }


def certify(
    rho_abc: DensityMatrix, spec: SaturatingSpec, tol: float = CERTIFY_TOL
) -> Certificate:
    """Check a proposed decomposition against a state; failures are reported,
    never raised.  ``tol`` must be finite and >= 0."""
    tol = _as_tolerance(tol, "certify tolerance")
    if rho_abc.dims != spec.dims:
        raise DimensionError(
            f"state dims {rho_abc.dims} do not match spec dims {spec.dims}"
        )
    root, sectors = _saturating_root(spec)
    built = _root_mixture(spec, root)
    rebuild_witness = float(np.max(np.abs(rho_abc.data - built.data)))
    orthogonality_witness = _orthogonality_witness(spec, root, sectors)
    gap_witness = t_gap(rho_abc).t_a
    return Certificate(
        rebuild_ok=rebuild_witness <= tol,
        rebuild_witness=rebuild_witness,
        orthogonality_ok=orthogonality_witness <= ORTHOGONALITY_TOL,
        orthogonality_witness=orthogonality_witness,
        gap_ok=gap_witness <= tol,
        gap_witness=gap_witness,
    )


def _random_factor_pair(rng: np.random.Generator, n: int) -> tuple[int, int]:
    pairs = [(a, n // a) for a in range(1, n + 1) if n % a == 0]
    return pairs[int(rng.integers(len(pairs)))]


def _random_sector_sizes(
    rng: np.random.Generator, total: int, count: int
) -> list[int]:
    sizes = [1] * count
    spare = total - count
    for i in range(count):
        if spare <= 0:
            break
        extra = int(rng.integers(0, spare + 1))
        sizes[i] += extra
        spare -= extra
    rng.shuffle(sizes)
    return sizes


def random_saturating_spec(
    dims: Sequence[int],
    rng: np.random.Generator,
    max_blocks: int = 3,
    min_blocks: int = 1,
) -> SaturatingSpec:
    """Random block decomposition with disjoint (orthogonal) embeddings."""
    dims = _as_dims(dims)
    _require_arity(dims, 3, "random_saturating_spec")
    d_a, d_b, d_c = dims
    k_max = min(max_blocks, d_b, d_c)
    k_min = min(min_blocks, k_max)
    k = int(rng.integers(k_min, k_max + 1))
    sizes_b = _random_sector_sizes(rng, d_b, k)
    sizes_c = _random_sector_sizes(rng, d_c, k)
    weights = rng.dirichlet(np.ones(k))
    blocks = []
    off_b = off_c = 0
    for i in range(k):
        bl, br = _random_factor_pair(rng, sizes_b[i])
        cl, cr = _random_factor_pair(rng, sizes_c[i])
        psi = random_pure((d_a, bl, cl), rng)
        rank = int(rng.integers(1, br * cr + 1))
        rho_z = random_density((br, cr), rank=rank, seed=rng)
        blocks.append(
            SaturatingBlock(
                weight=float(weights[i]),
                psi_ay=psi,
                rho_z=rho_z,
                partition=(bl, br, cl, cr),
                embed_b=off_b,
                embed_c=off_c,
            )
        )
        off_b += sizes_b[i]
        off_c += sizes_c[i]
    return SaturatingSpec((d_a, d_b, d_c), tuple(blocks), orthogonal=True)


# --- spec file format --------------------------------------------------------
#
# {"dims": [dA, dB, dC], "orthogonal": true,
#  "blocks": [{"weight": p, "psi": {...}, "rhoZ": {...},
#              "partition": [bl, br, cl, cr], "embedB": o, "embedC": o}, ...]}


def spec_to_dict(spec: SaturatingSpec) -> dict:
    return {
        "dims": list(spec.dims),
        "orthogonal": spec.orthogonal,
        "blocks": [
            {
                "weight": blk.weight,
                "psi": pure_to_dict(blk.psi_ay),
                "rhoZ": density_to_dict(blk.rho_z),
                "partition": list(blk.partition),
                "embedB": blk.embed_b,
                "embedC": blk.embed_c,
            }
            for blk in spec.blocks
        ],
    }


def spec_from_dict(obj: dict) -> SaturatingSpec:
    if not isinstance(obj, dict):
        raise ParseError("spec: top level must be a JSON object")
    dims = obj.get("dims")
    if not isinstance(dims, list):
        raise ParseError("spec: field 'dims' must be a list")
    raw_blocks = obj.get("blocks")
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise ParseError("spec: field 'blocks' must be a nonempty list")
    orthogonal = obj.get("orthogonal", False)
    if not isinstance(orthogonal, bool):
        raise ParseError("spec: field 'orthogonal' must be a boolean")
    blocks = []
    for i, raw in enumerate(raw_blocks):
        if not isinstance(raw, dict):
            raise ParseError(f"spec: block {i} must be an object")
        missing = [f for f in ("weight", "partition", "psi", "rhoZ") if f not in raw]
        if missing:
            raise ParseError(f"spec: block {i} missing field {missing[0]!r}")
        if not isinstance(raw["partition"], list):
            raise ParseError(f"spec: block {i} partition must be a list")
        try:
            blocks.append(
                SaturatingBlock(
                    weight=raw["weight"],
                    psi_ay=pure_from_dict(raw["psi"]),
                    rho_z=density_from_dict(raw["rhoZ"]),
                    partition=tuple(raw["partition"]),  # type: ignore[arg-type]
                    embed_b=raw.get("embedB", 0),
                    embed_c=raw.get("embedC", 0),
                )
            )
        except SsaLabError as exc:
            raise ParseError(f"spec: block {i}: {exc}") from exc
    try:
        return SaturatingSpec(tuple(dims), tuple(blocks), orthogonal=orthogonal)
    except SsaLabError as exc:
        raise ParseError(f"spec: {exc}") from exc


def load_spec(path: str) -> SaturatingSpec:
    return spec_from_dict(read_json(path))


def save_spec(path: str, spec: SaturatingSpec) -> None:
    write_json(path, spec_to_dict(spec))
