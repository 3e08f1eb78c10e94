"""Catalog of classical-bit-to-quantum encodings and encoded states.

An encoding assigns each bit value an orthonormal basis of a subspace of an
ambient space of dimension d; directions outside both logical subspaces are
"fixed": every synthesized gate must map them to themselves.

Bit order convention, used everywhere in the package: the first classical bit
is the most significant Kronecker factor, so "01" encodes to |0> kron |1>.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .linalg import _check_tol, _count, _frozen, _kron_apply, _norm, _permutation, _square, _unit, _unitary
from .linalg import as_array, kron

__all__ = [
    "Encoding",
    "QuantumState",
    "StateKind",
    "StateClassification",
    "BUILTIN_ENCODINGS",
    "builtin_encoding",
    "encode_bits",
    "logical_subspace",
    "fixed_complement",
    "classify_state",
]

_ORTHO_TOL = 1e-12
# _bit_strings caches all 2**n strings for n up to this.
_CACHED_BITS = 12


def _as_basis(vectors, dim: int) -> list[np.ndarray]:
    """The basis vectors, each a complex vector of length dim: the columns of
    a matrix, or else the items of a sequence."""
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        vectors = vectors.T
    cols = [as_array(c, 1) for c in vectors]
    for c in cols:
        if c.size != dim:
            raise ValueError(f"basis vectors have dimension {c.size}, expected {dim}")
    return cols


def _is_bits(bits, length: int | None = None) -> bool:
    """True for a nonempty string of 0s and 1s, of `length` characters when
    given."""
    return isinstance(bits, str) and bits != "" and set(bits) <= {"0", "1"} and length in (None, len(bits))


def _check_bits(bits: str, length: int | None = None, what: str = "input") -> None:
    """Raise ValueError unless _is_bits(bits, length)."""
    if not _is_bits(bits, length):
        kind = "nonempty bit string" if length is None else f"bit string of length {length}"
        raise ValueError(f"{what} must be a {kind}, got {bits!r}")


def _bit_strings(n: int, indices=None) -> tuple[str, ...] | list[str]:
    """The n-bit strings of `indices` as a list, or all 2**n in index order
    as a tuple: index i in binary, most significant bit first.  The tuple
    for n <= _CACHED_BITS is built once and shared, so the cache pins at
    most 2 * 2**_CACHED_BITS strings, about 0.6 MB; a larger n builds its
    tuple on every call, at a cost of the order of a table of 2**n rows."""
    if indices is None:
        return _all_bit_strings(n) if n <= _CACHED_BITS else tuple(_bit_strings(n, range(2**n)))
    return [format(i, f"0{n}b") for i in indices]


@functools.lru_cache(maxsize=None)
def _all_bit_strings(n: int) -> tuple[str, ...]:
    """_bit_strings(n) for n <= _CACHED_BITS, built on the first call."""
    return tuple(_bit_strings(n, range(2**n)))


@dataclass(frozen=True, eq=False)
class Encoding:
    """Assignment of bit values 0 and 1 to orthonormal subspace bases.

    basis0/basis1 hold the logical subspace bases as matrix columns; fixed
    holds the directions gates must map to themselves.  Together the columns
    must form an orthonormal basis of the full ambient space, and the two
    logical subspaces must have equal dimension (otherwise no unitary NOT
    can exist).

    frame is that unitary [basis0 | basis1 | fixed], stored once and
    read-only; basis0, basis1 and fixed are views of its columns.
    """

    name: str
    ambient_dim: int
    basis0: np.ndarray
    basis1: np.ndarray
    fixed: np.ndarray = field(default=None)  # type: ignore[assignment]
    frame: np.ndarray = field(init=False, repr=False)

    def __eq__(self, other):
        if not isinstance(other, Encoding):
            return NotImplemented
        return self.bit_dim == other.bit_dim and np.array_equal(self.frame, other.frame)

    def __hash__(self):
        return hash((self.ambient_dim, self.bit_dim, self.fixed.shape[1]))

    def __post_init__(self):
        d = _count(self.ambient_dim, "ambient dimension")
        object.__setattr__(self, "ambient_dim", d)
        if d < 2:
            raise ValueError("ambient dimension must be at least 2")
        bases = (self.basis0, self.basis1, [] if self.fixed is None else self.fixed)
        cols0, cols1, cols_fixed = (_as_basis(b, d) for b in bases)
        k = len(cols0)
        if k != len(cols1):
            raise ValueError(
                f"logical subspaces must have equal dimension ({k} vs {len(cols1)}); no unitary NOT exists otherwise"
            )
        if k == 0:
            raise ValueError("logical subspaces must be at least one-dimensional")
        if 2 * k + len(cols_fixed) != d:
            raise ValueError(
                f"subspace dimensions {k}+{k}+{len(cols_fixed)} do not add up to the ambient dimension {d}"
            )
        frame, split = _square(np.column_stack(cols0 + cols1 + cols_fixed), "encoding frame")
        _unitary(frame, split, _ORTHO_TOL, "encoding basis vectors are not orthonormal")
        frame.setflags(write=False)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "basis0", frame[:, :k])
        object.__setattr__(self, "basis1", frame[:, k : 2 * k])
        object.__setattr__(self, "fixed", frame[:, 2 * k :])

    @property
    def bit_dim(self) -> int:
        """Dimension of each logical subspace."""
        return self.basis0.shape[1]

    def basis(self, bit: str) -> np.ndarray:
        return self.basis0 if bit == "0" else self.basis1

    def __repr__(self):
        return f"Encoding({self.name!r}, dim={self.ambient_dim})"


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Amplitude vector tagged with its encoding and subsystem count.

    States are stored unnormalized; probability-style readouts normalize on
    demand.  The zero vector is rejected.
    """

    amplitudes: np.ndarray
    encoding: Encoding
    subsystem_count: int

    def __post_init__(self):
        amps = _frozen(as_array(self.amplitudes, 1))
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "subsystem_count", _count(self.subsystem_count, "subsystem_count"))
        if self.subsystem_count < 1:
            raise ValueError("subsystem_count must be positive")
        expected = self.encoding.ambient_dim ** self.subsystem_count
        if amps.size != expected:
            raise ValueError(
                f"state dimension {amps.size} does not match "
                f"d^n = {self.encoding.ambient_dim}^{self.subsystem_count}"
            )
        if not amps.any():
            raise ValueError("the zero vector is not a state")

    @property
    def norm(self) -> float:
        return _norm(self.amplitudes)

    def normalized(self) -> np.ndarray:
        """Unit-norm copy of the amplitude vector."""
        return _unit(self.amplitudes)


class StateKind(enum.Enum):
    LOGICAL = "logical"
    SUPERPOSITION = "superposition"
    OUTSIDE_CODE = "outside_code"


@dataclass(frozen=True)
class StateClassification:
    kind: StateKind
    bits: str | None = None

    def __str__(self):
        if self.kind is StateKind.LOGICAL:
            return f"logical({self.bits})"
        return self.kind.value


_S = 1 / np.sqrt(2)
_QUQUART = ([[1, 0, 0, 0], [0, 0, 0, 1]], [[0, 1, 0, 0], [0, 0, 1, 0]])

# name -> Encoding, built once from (basis0, basis1[, fixed]) as lists of basis
# vectors; safe to share, as an Encoding is frozen and its arrays read-only.
_BUILTINS = {
    name: Encoding(name, len(bases[0][0]), *bases)
    for name, bases in {
        "qubit": ([[1, 0]], [[0, 1]]),
        "qutrit": ([[1, 0, 0]], [[0, 0, 1]], [[0, 1, 0]]),
        "ququart": _QUQUART,
        # Row-major flattening of the matrix-unit spans {E11, E22} and {E12, E21}.
        "matrix2": _QUQUART,
        # Flattened spans {I, X} for 0 and {Y, Z} for 1, scaled to unit
        # Hilbert-Schmidt norm.
        "pauli": (
            [[_S, 0, 0, _S], [0, _S, _S, 0]],
            [[0, -1j * _S, 1j * _S, 0], [_S, 0, 0, -_S]],
        ),
    }.items()
}

BUILTIN_ENCODINGS = tuple(_BUILTINS)


def builtin_encoding(name: str) -> Encoding:
    """Return one of the built-in encodings by name: the same shared,
    immutable value on every call."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown encoding {name!r}; expected one of {', '.join(BUILTIN_ENCODINGS)}"
        ) from None


@functools.lru_cache(maxsize=64)
def _layout(enc: Encoding, n: int) -> tuple[np.ndarray, bool, np.ndarray]:
    """The one layout of the logical subspaces of n subsystems: a read-only
    (2**n, k**n) table, whether enc.frame is a permutation matrix, and the
    read-only group map of length d**n.  Row x of the table lists the
    columns of W = frame^(kron n) spanning bit string x's subspace, in
    logical_subspace's column order; group[j] is the row holding column j,
    or 2**n for a column in no row, which has a fixed factor.  Column j =
    (j_1 .. j_n) in base d is frame label j, or, under a permutation frame
    sigma, ambient index sum_i sigma[j_i] d^(n-i), in which numbering W = I."""
    d, k = enc.ambient_dim, enc.bit_dim
    sigma = _permutation(*_square(enc.frame, "encoding frame"))
    digits = (np.arange(d) if sigma is None else sigma)[: 2 * k]
    corner = functools.reduce(lambda a, b: (a[:, None] * d + b).reshape(-1), [digits] * n)
    bit_major = corner.reshape((2, k) * n).transpose(*range(0, 2 * n, 2), *range(1, 2 * n, 2))
    table = bit_major.reshape(2**n, k**n)
    group = np.full(d**n, 2**n)
    group[table] = np.arange(2**n)[:, None]
    table.setflags(write=False)
    group.setflags(write=False)
    return table, sigma is not None, group


def encode_bits(enc: Encoding, bits: str) -> QuantumState:
    """Encode a bit string as the Kronecker product of per-bit basis vectors.

    Each bit contributes the first basis vector of its logical subspace; the
    first bit is the most significant factor.
    """
    _check_bits(bits)
    amps = functools.reduce(kron, [enc.basis(b)[:, 0] for b in bits])
    return QuantumState(amps, enc, len(bits))


def logical_subspace(enc: Encoding, bits: str) -> np.ndarray:
    """Orthonormal basis (as columns) of the logical subspace of a bit string.

    The basis is the Kronecker product of the per-bit subspace bases, ordered
    lexicographically in the per-bit basis indices.
    """
    _check_bits(bits)
    return functools.reduce(kron, [enc.basis(b) for b in bits])


def fixed_complement(enc: Encoding, n: int) -> np.ndarray:
    """Orthonormal basis of the complement gates must fix: all ambient product
    basis vectors with a fixed-complement direction on at least one factor.

    Columns are the n-fold Kronecker products of the per-factor columns of
    [basis0 | basis1 | fixed], in lexicographic order of the factor labels.
    """
    d = enc.ambient_dim
    if enc.fixed.shape[1] == 0:
        return np.zeros((d**n, 0), dtype=np.complex128)
    power = functools.reduce(kron, [enc.frame] * n)
    labels = np.indices((d,) * n).reshape(n, -1)
    return power[:, (labels >= 2 * enc.bit_dim).any(axis=0)]


def classify_state(enc: Encoding, s: QuantumState, tol: float) -> StateClassification:
    """Classify a state as logical, a superposition, or outside the code.

    Logical(b) if at most tol of the squared norm leaks out of b's subspace,
    b the heaviest (the lowest on ties); outside the code if more than tol
    lies in the fixed directions; superposition otherwise.  The weights are
    the squared frame coefficients summed by group of the layout (_layout);
    no leak is subtracted from 1, so tol = 0 is decided exactly under a
    permutation frame (a rotated one leaves roundoff in every group).
    Raises ValueError for a NaN or negative tol.
    """
    _check_tol(tol)
    if s.encoding is not enc and s.encoding != enc:
        raise ValueError("state was prepared under a different encoding")
    n = s.subsystem_count
    _, aligned, group = _layout(enc, n)
    psi = s.normalized()
    coeffs = psi if aligned else _kron_apply([enc.frame.conj().T] * n, psi)
    weights = np.bincount(group, np.abs(coeffs) ** 2, minlength=2**n + 1)
    best = int(weights[:-1].argmax())
    if weights[:best].sum() + weights[best + 1 :].sum() <= tol:
        return StateClassification(StateKind.LOGICAL, _bit_strings(n, [best])[0])
    if weights[-1] > tol:
        return StateClassification(StateKind.OUTSIDE_CODE)
    return StateClassification(StateKind.SUPERPOSITION)
