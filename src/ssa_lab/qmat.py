"""Complex-matrix core: states, tensor products, partial traces.

Index convention, fixed globally: subsystem 0 is the slowest-varying tensor
index (big-endian), so a basis label (i0, i1, ..., in) maps to the flat row
index i0*d1*...*dn + i1*d2*...*dn + ... + in.

Each value rule has one home, in the type or function that holds the value:
``_as_int`` is the one integer rule (a Python or numpy integer, never a
float or a bool), ``_as_ints`` applies it to every entry of a sequence
(``_as_dims`` to every subsystem dimension), ``_as_tolerance`` is the one
tolerance rule (a finite real >= 0, never a bool), and ``_as_array`` is the one
conversion of array data (strings, ragged nesting and other data numpy
cannot read as numbers raise ValidationError).  ``_from_root`` is the one
build of a state G G^dag from its root G, the amplitudes arranged kept x
traced (``_pure_root``), and keeps G in the state when G has fewer columns
than rows; it takes one root, never a stack.  ``entropy._entropies`` reads
each marginal entropy of such a state, or of a stack of roots, off the Gram
of G arranged by ``_pure_root``, and of any other state off the marginal
``trace_out`` takes from its matrix.  ``DensityMatrix`` checks shape only
(and a root's finiteness): states the package builds are valid by
construction.  ``validate_density`` checks outside input (state and spec
files, arrays a caller passes), finiteness included.  ``entropy._spectrum``
guards every spectrum read from a matrix, stacks included.  The file
parsers check JSON shape only.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, ParseError, ValidationError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
# Entropies and purifications reject an eigenvalue below -NEGATIVITY_BOUND
# (ValidationError); wider than POSITIVITY_TOL for states built by arithmetic.
NEGATIVITY_BOUND = 1e-8
NORM_TOL = 1e-10
# Eigenvalues at or below this count as zero: in entropies, ranks and
# purifications alike.
EIG_CLIP = 1e-12
# The largest state side, the product of the dims, that a campaign draws or
# a spec builds (a CapabilityError past it): a side-1024 density matrix
# takes 16 MiB.
MAX_STATE_SIDE = 1024
# Default tolerance of a saturation certificate (structure.certify and the
# CLI's certify --tol).
CERTIFY_TOL = 1e-8


def _as_int(
    value: object, what: str, low: int, error: type = DimensionError, high: int | None = None
) -> int:
    """``value`` as a Python int in [low, high] (no upper bound when
    ``high`` is None); anything else raises ``error``."""
    if type(value) is not bool:
        try:
            number = operator.index(value)
        except TypeError:
            pass
        else:
            if high is not None and number > high:
                raise error(f"{what} must be at most {high}, got {number}")
            if number >= low:
                return number
    raise error(f"{what} must be an integer >= {low}, got {value!r}")


def _as_tolerance(value: object, what: str) -> float:
    """``value`` as a finite float >= 0; anything else raises ConfigError."""
    if type(value) is not bool and isinstance(value, numbers.Real):
        number = float(value)
        if math.isfinite(number) and number >= 0.0:
            return number
    raise ConfigError(f"{what} must be finite and >= 0, got {value!r}")


def _as_ints(values: Iterable[int], what: str, low: int) -> tuple[int, ...]:
    """Each entry of the sequence ``what`` through ``_as_int``; a
    non-iterable raises DimensionError."""
    try:
        entries = list(values)
    except TypeError:
        raise DimensionError(f"{what} must be a sequence of integers, got {values!r}") from None
    entry = f"each of {what}"
    return tuple([_as_int(v, entry, low) for v in entries])


def _as_array(value: object, what: str, dtype: type) -> np.ndarray:
    """``value`` as a new numpy array of ``dtype``; data numpy cannot convert
    raises ValidationError."""
    try:
        return np.array(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be numeric data: {exc}") from None


def _as_dims(dims: Iterable[int]) -> tuple[int, ...]:
    out = _as_ints(dims, "dims", 1)
    if not out:
        raise DimensionError("dims must contain at least one subsystem")
    return out


def _require_arity(dims: tuple[int, ...], arity: int, op: str) -> None:
    """Raise DimensionError unless ``dims`` names ``arity`` subsystems."""
    if len(dims) != arity:
        raise DimensionError(
            f"{op} needs a state with {arity} subsystems, got dims {dims}"
        )


class DensityMatrix:
    """Mixed state on a tensor product of finite-dimensional subsystems.

    ``dims`` lists the subsystem dimensions; ``data`` is the square complex
    matrix of side prod(dims), read-only.  The constructor only checks shape,
    as the package builds valid states; build from outside data through
    :func:`validate_density`, which enforces hermiticity, trace and positivity.

    A state built as G G^dag, G of fewer columns than rows (``_from_root``),
    holds G, its root, in place of ``data``: ``DensityMatrix(dims, _root=G)``
    checks G's shape and finiteness and forms ``data`` = G @ G^dag on its
    first read, once.  Exactly one of ``data`` and ``_root`` is given.
    """

    def __init__(self, dims: Iterable[int], data: object = None, *, _root: object = None) -> None:
        dims = _as_dims(dims)
        side = math.prod(dims)
        if (data is None) == (_root is None):
            raise ValidationError("a DensityMatrix takes exactly one of data and root")
        if _root is None:
            data = _as_array(data, "matrix", complex)
            if data.ndim != 2 or data.shape != (side, side):
                raise DimensionError(
                    f"matrix shape {data.shape} does not match dims {dims} "
                    f"(expected {side}x{side})"
                )
            data.setflags(write=False)
        else:
            _root = _as_array(_root, "root", complex)
            if _root.ndim != 2 or _root.shape[0] != side or _root.shape[1] < 1:
                raise DimensionError(
                    f"root shape {_root.shape} does not match dims {dims} "
                    f"(expected {side} rows)"
                )
            if not np.isfinite(_root).all():
                raise ValidationError("finiteness: root has NaN or Inf entries")
            _root.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "_root", _root)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"DensityMatrix(dims={self.dims!r}, data={self.data!r})"

    @property
    def data(self) -> np.ndarray:
        data = self._data
        if data is None:
            root = self._root
            data = root @ root.conj().T
            data.setflags(write=False)
            object.__setattr__(self, "_data", data)
        return data

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def trace(self) -> float:
        return float(np.trace(self.data).real)


def _from_root(dims: tuple[int, ...], root: np.ndarray) -> DensityMatrix:
    """The state G G^dag on ``dims``, for a root G of side rows: holding G
    when it has fewer columns than rows, else formed at once.  Anything but
    one side x r matrix, a stack of roots included, raises DimensionError."""
    side = math.prod(dims)
    if root.ndim != 2 or root.shape[0] != side:
        raise DimensionError(
            f"root shape {root.shape} does not match dims {dims} (expected {side} rows)"
        )
    if root.shape[1] < side:
        return DensityMatrix(dims, _root=root)
    return DensityMatrix(dims, root @ root.conj().T)


@dataclass(frozen=True)
class PureStateVector:
    """Normalized state vector with an attached subsystem layout."""

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        dims = _as_dims(self.dims)
        amps = _as_array(self.amps, "vector", complex).reshape(-1)
        if amps.shape[0] != math.prod(dims):
            raise DimensionError(
                f"vector length {amps.shape[0]} does not match dims {dims}"
            )
        if not np.isfinite(amps).all():
            raise ValidationError("finiteness: vector has NaN or Inf entries")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValidationError(f"norm: vector has norm {norm!r}, expected 1")
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(self.dims, np.outer(self.amps, self.amps.conj()))


def tensor_density(*states: DensityMatrix) -> DensityMatrix:
    """Tensor product of density matrices; dims lists concatenate."""
    if not states:
        raise DimensionError("tensor_density needs at least one state")
    data = states[0].data
    dims: tuple[int, ...] = states[0].dims
    for s in states[1:]:
        data = np.kron(data, s.data)
        dims = dims + s.dims
    return DensityMatrix(dims, data)


def trace_out(data: np.ndarray, dims: tuple[int, ...], keep: Iterable[int]) -> np.ndarray:
    """Partial trace of a (..., side, side) stack (one state: no leading axes)
    onto the subsystems in ``keep``, in their original relative order: one
    einsum over the (..., dims, dims) tensor, where a traced leg's row and
    column share a subscript, so several traced legs sum in one pass."""
    n, lead = len(dims), data.ndim - 2
    kept = sorted(set(keep))
    cols = [n + i if i in kept else i for i in range(n)]
    tensor = data.reshape(data.shape[:lead] + dims + dims)
    out = np.einsum(tensor, [..., *range(n), *cols], [..., *kept, *(n + i for i in kept)])
    side = math.prod(dims[i] for i in kept)
    return out.reshape(data.shape[:lead] + (side, side))


def _pure_root(
    amps: np.ndarray, dims: tuple[int, ...], keep: Iterable[int], lead: tuple[int, ...] = ()
) -> np.ndarray:
    """The amplitudes ``amps`` on ``dims`` arranged as kept x traced, the
    kept subsystems in their original relative order: the root G of the
    partial trace G G^dag onto them.  Over a stack of amplitudes with
    leading axes ``lead``, the (*lead, kept, traced) stack of such roots."""
    kept = sorted(set(keep))
    traced = [i for i in range(len(dims)) if i not in kept]
    n = len(lead)
    side = math.prod(dims[i] for i in kept)
    axes = [*range(n), *[n + i for i in kept + traced]]
    return amps.reshape(lead + dims).transpose(axes).reshape(lead + (side, -1))


def trace_out_pure(amps: np.ndarray, dims: tuple[int, ...], keep: Iterable[int]) -> np.ndarray:
    """Partial trace of the pure state with amplitudes ``amps`` onto the
    subsystems in ``keep``, in their original relative order: G G^dag with G
    the ``_pure_root``, so no outer product is formed."""
    g = _pure_root(amps, dims, keep)
    return g @ g.conj().T


def partial_trace(state: DensityMatrix | PureStateVector, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the kept subsystems, in their original relative order;
    a pure state's is built from its ``_pure_root`` (``_from_root``)."""
    n = len(state.dims)
    keep_set = set(_as_ints(keep, "keep", 0))
    if not keep_set:
        raise DimensionError("keep must name at least one subsystem")
    if max(keep_set) >= n:
        raise DimensionError(f"keep {sorted(keep_set)} out of range for {n} subsystems")
    kept_dims = tuple(state.dims[i] for i in sorted(keep_set))
    if isinstance(state, PureStateVector):
        return _from_root(kept_dims, _pure_root(state.amps, state.dims, keep_set))
    return DensityMatrix(kept_dims, trace_out(state.data, state.dims, keep_set))


def permute_subsystems(rho: DensityMatrix, order: Sequence[int]) -> DensityMatrix:
    """Reorder tensor legs; ``order[i]`` names the old position of new leg i."""
    n = len(rho.dims)
    order = _as_ints(order, "order", 0)
    if sorted(order) != list(range(n)):
        raise DimensionError(f"order {order} is not a permutation of 0..{n - 1}")
    tensor = rho.data.reshape(rho.dims + rho.dims)
    perm = order + tuple(i + n for i in order)
    new_dims = tuple(rho.dims[i] for i in order)
    side = math.prod(new_dims)
    return DensityMatrix(new_dims, tensor.transpose(perm).reshape(side, side))


def validate_density(m: np.ndarray, dims: Iterable[int]) -> DensityMatrix:
    """Check density-matrix invariants and return a cleaned-up state.

    For outside input (see the module docstring).  The Hermitian part of
    ``m`` is taken, eigenvalues in [-POSITIVITY_TOL, 0) are clipped to zero
    and the matrix renormalized to unit trace.  A deviation beyond
    HERMITICITY_TOL, TRACE_TOL or POSITIVITY_TOL raises
    :class:`ValidationError` naming the invariant.
    """
    dims = _as_dims(dims)
    m = _as_array(m, "matrix", complex)
    side = math.prod(dims)
    if m.ndim != 2 or m.shape != (side, side):
        raise ValidationError(
            f"shape: matrix {m.shape} does not match dims {dims} "
            f"(expected {side}x{side})"
        )
    if not np.isfinite(m).all():
        raise ValidationError("finiteness: matrix has NaN or Inf entries")
    m_dag = m.conj().T
    herm_dev = float(np.max(np.abs(m - m_dag)))
    if herm_dev > HERMITICITY_TOL:
        raise ValidationError(
            f"hermiticity: max |m - m^dag| = {herm_dev:.3e} > {HERMITICITY_TOL:.1e}"
        )
    h = (m + m_dag) / 2.0
    tr = float(np.trace(h).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(
            f"trace: Tr(m) = {tr!r} deviates from 1 by more than {TRACE_TOL:.1e}"
        )
    w, v = np.linalg.eigh(h)
    if w.min() < -POSITIVITY_TOL:
        raise ValidationError(
            f"positivity: smallest eigenvalue {w.min():.3e} < -{POSITIVITY_TOL:.1e}"
        )
    cleaned = (v * np.clip(w, 0.0, None)) @ v.conj().T
    cleaned /= np.trace(cleaned).real
    return DensityMatrix(dims, cleaned)


def random_pure(
    dims: Iterable[int], seed: int | np.random.Generator
) -> PureStateVector:
    """Haar-distributed pure state: normalized complex-Gaussian vector.  A
    Generator is drawn from as given; any other seed is an integer >= 0."""
    dims = _as_dims(dims)
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(_as_int(seed, "seed", 0, ConfigError))
    )
    n = math.prod(dims)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureStateVector(dims, z / np.linalg.norm(z))


def random_density(
    dims: Iterable[int],
    rank: int | None = None,
    seed: int | np.random.Generator = 0,
) -> DensityMatrix:
    """Random mixed state from the induced measure.

    Partial trace of a Haar pure state on dims x [rank], G G^dag of the
    state's amplitudes reshaped to a side x rank (Ginibre) matrix G, which a
    state of rank below its side keeps as its root (``_from_root``);
    Hilbert-Schmidt measure when rank equals the total dimension.
    Deterministic given seed.
    """
    dims = _as_dims(dims)
    side = math.prod(dims)
    rank = side if rank is None else _as_int(rank, "rank", 1)
    if rank > side:
        raise DimensionError(f"rank must be in [1, {side}], got {rank}")
    psi = random_pure(dims + (rank,), seed)
    return _from_root(dims, _pure_root(psi.amps, psi.dims, range(len(dims))))


# --- state file format -------------------------------------------------------
#
# DensityMatrix: {"dims": [d0, d1, ...], "matrix": [[[re, im], ...], ...]}
# PureStateVector: {"dims": [d0, d1, ...], "vector": [[re, im], ...]}
#
# Matrices are row-major and square.  The parsers check JSON shape only;
# validate_density and PureStateVector check dims, finiteness and invariants.


def is_json_number(value: object) -> bool:
    """A JSON number (integer or float), not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _complex_from_pair(pair: object, where: str) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(is_json_number(x) for x in pair)
    ):
        raise ParseError(f"{where}: expected [re, im] pair, got {pair!r}")
    try:
        return complex(float(pair[0]), float(pair[1]))
    except OverflowError:
        raise ParseError(f"{where}: entry too large for a float") from None


def _dims_from_obj(obj: object, where: str) -> tuple[int, ...]:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    dims = obj.get("dims")
    if not isinstance(dims, list):
        raise ParseError(f"{where}: field 'dims' must be a list")
    try:
        return _as_dims(dims)
    except DimensionError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def density_to_dict(rho: DensityMatrix) -> dict:
    matrix = np.stack((rho.data.real, rho.data.imag), -1).tolist()
    return {"dims": list(rho.dims), "matrix": matrix}


def density_from_dict(obj: dict) -> DensityMatrix:
    dims = _dims_from_obj(obj, "density state")
    rows = obj.get("matrix")
    side = math.prod(dims)
    if not isinstance(rows, list) or len(rows) != side:
        raise ParseError(f"field 'matrix': expected {side} rows")
    data = np.empty((side, side), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != side:
            raise ParseError(f"field 'matrix' row {i}: expected {side} entries")
        for j, pair in enumerate(row):
            data[i, j] = _complex_from_pair(pair, f"matrix[{i}][{j}]")
    return validate_density(data, dims)


def pure_to_dict(psi: PureStateVector) -> dict:
    vector = np.stack((psi.amps.real, psi.amps.imag), -1).tolist()
    return {"dims": list(psi.dims), "vector": vector}


def pure_from_dict(obj: dict) -> PureStateVector:
    dims = _dims_from_obj(obj, "pure state")
    vec = obj.get("vector")
    n = math.prod(dims)
    if not isinstance(vec, list) or len(vec) != n:
        raise ParseError(f"field 'vector': expected {n} entries")
    amps = np.empty(n, dtype=complex)
    for i, pair in enumerate(vec):
        amps[i] = _complex_from_pair(pair, f"vector[{i}]")
    return PureStateVector(dims, amps)


def read_json(path: str) -> object:
    """Parse a state or spec file; bad JSON, NaN/Infinity, text that is not
    UTF-8 and nesting too deep to parse raise ParseError."""

    def reject_constant(token: str) -> float:
        raise ParseError(f"{path}: non-finite value {token!r}")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=reject_constant)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text at byte {exc.start}") from None
        except RecursionError:
            raise ParseError(f"{path}: JSON nested too deeply to parse") from None


def write_json(path: str, obj: dict) -> None:
    """Write a state or spec record as one sorted-key JSON line."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def load_state(path: str) -> DensityMatrix | PureStateVector:
    """Load a state file, dispatching on its 'matrix'/'vector' field."""
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    if "matrix" in obj:
        return density_from_dict(obj)
    if "vector" in obj:
        return pure_from_dict(obj)
    raise ParseError(f"{path}: expected a 'matrix' or 'vector' field")


def load_density(path: str) -> DensityMatrix:
    """Load a state file, accepting a pure state by promoting it."""
    state = load_state(path)
    if isinstance(state, PureStateVector):
        return state.to_density()
    return state


def save_state(path: str, state: DensityMatrix | PureStateVector) -> None:
    obj = (
        density_to_dict(state)
        if isinstance(state, DensityMatrix)
        else pure_to_dict(state)
    )
    write_json(path, obj)
