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

from .linalg import _check_tol, _count, _kron_apply, _norm, _unit, _unitarity_residual, as_array, kron

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


def _as_basis(vectors, dim: int) -> np.ndarray:
    """Stack basis vectors as columns of a read-only (dim, k) array."""
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        cols = [vectors[:, j] for j in range(vectors.shape[1])]
    else:
        cols = list(vectors)
    if not cols:
        out = np.zeros((dim, 0), dtype=np.complex128)
        out.setflags(write=False)
        return out
    out = np.column_stack([as_array(c, 1) for c in cols])
    if out.shape[0] != dim:
        raise ValueError(f"basis vectors have dimension {out.shape[0]}, expected {dim}")
    out.setflags(write=False)
    return out


def _is_bits(bits, length: int | None = None) -> bool:
    """True for a nonempty string of 0s and 1s, of `length` characters when
    given."""
    return isinstance(bits, str) and bits != "" and set(bits) <= {"0", "1"} and length in (None, len(bits))


def _check_bits(bits: str, length: int | None = None, what: str = "input") -> None:
    """Raise ValueError unless _is_bits(bits, length)."""
    if not _is_bits(bits, length):
        kind = "nonempty bit string" if length is None else f"bit string of length {length}"
        raise ValueError(f"{what} must be a {kind}, got {bits!r}")


def _bit_strings(n: int, indices=None) -> list[str]:
    """The n-bit strings of `indices` (by default all 2**n in index order):
    index i in binary, most significant bit first."""
    return [format(i, f"0{n}b") for i in (range(2**n) if indices is None else indices)]


@functools.lru_cache(maxsize=64)
def _label_blocks(d: int, k: int, n: int) -> np.ndarray:
    """Frame labels of the logical subspaces, read-only, shape (2**n, k**n).
    Labels number the columns of frame^(kron n).  Row x (bit strings in index
    order) holds the labels spanning x's logical subspace, in
    logical_subspace's column order; a label in no row has a fixed factor."""
    corner = np.arange(d**n).reshape((d,) * n)[(slice(0, 2 * k),) * n].reshape((2, k) * n)
    blocks = corner.transpose(*range(0, 2 * n, 2), *range(1, 2 * n, 2)).reshape(2**n, k**n)
    blocks.setflags(write=False)
    return blocks


@dataclass(frozen=True, eq=False)
class Encoding:
    """Assignment of bit values 0 and 1 to orthonormal subspace bases.

    basis0/basis1 hold the logical subspace bases as matrix columns; fixed
    holds the directions gates must map to themselves.  Together the columns
    must form an orthonormal basis of the full ambient space, and the two
    logical subspaces must have equal dimension (otherwise no unitary NOT
    can exist).

    frame is that unitary [basis0 | basis1 | fixed].
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
        return (
            self.ambient_dim == other.ambient_dim
            and np.array_equal(self.basis0, other.basis0)
            and np.array_equal(self.basis1, other.basis1)
            and np.array_equal(self.fixed, other.fixed)
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.bit_dim, self.fixed.shape[1]))

    def __post_init__(self):
        d = self.ambient_dim
        if d < 2:
            raise ValueError("ambient dimension must be at least 2")
        object.__setattr__(self, "basis0", _as_basis(self.basis0, d))
        object.__setattr__(self, "basis1", _as_basis(self.basis1, d))
        fixed = self.fixed if self.fixed is not None else np.zeros((d, 0))
        object.__setattr__(self, "fixed", _as_basis(fixed, d))
        if self.basis0.shape[1] != self.basis1.shape[1]:
            raise ValueError(
                "logical subspaces must have equal dimension "
                f"({self.basis0.shape[1]} vs {self.basis1.shape[1]}); "
                "no unitary NOT exists otherwise"
            )
        if self.basis0.shape[1] == 0:
            raise ValueError("logical subspaces must be at least one-dimensional")
        frame = np.hstack([self.basis0, self.basis1, self.fixed])
        if frame.shape[1] != d:
            raise ValueError(
                f"subspace dimensions {self.basis0.shape[1]}+{self.basis1.shape[1]}"
                f"+{self.fixed.shape[1]} do not add up to the ambient dimension {d}"
            )
        if not _unitarity_residual(frame) <= _ORTHO_TOL:
            raise ValueError("encoding basis vectors are not orthonormal")
        frame.setflags(write=False)
        object.__setattr__(self, "frame", frame)

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
        amps = as_array(self.amplitudes, 1).copy()
        amps.setflags(write=False)
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
        if _norm(amps) == 0.0:
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

# name -> (basis0, basis1[, fixed]) as lists of basis vectors.
_BUILTIN_BASES = {
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
}

BUILTIN_ENCODINGS = tuple(_BUILTIN_BASES)


def builtin_encoding(name: str) -> Encoding:
    """Return one of the built-in encodings by name."""
    try:
        bases = _BUILTIN_BASES[name]
    except KeyError:
        raise ValueError(
            f"unknown encoding {name!r}; expected one of {', '.join(BUILTIN_ENCODINGS)}"
        ) from None
    return Encoding(name, len(bases[0][0]), *bases)


def encode_bits(enc: Encoding, bits: str) -> QuantumState:
    """Encode a bit string as the Kronecker product of per-bit basis vectors.

    Each bit contributes the first basis vector of its logical subspace; the
    first bit is the most significant factor.
    """
    _check_bits(bits)
    amps = enc.basis(bits[0])[:, 0]
    for b in bits[1:]:
        amps = kron(amps, enc.basis(b)[:, 0])
    return QuantumState(amps, enc, len(bits))


def logical_subspace(enc: Encoding, bits: str) -> np.ndarray:
    """Orthonormal basis (as columns) of the logical subspace of a bit string.

    The basis is the Kronecker product of the per-bit subspace bases, ordered
    lexicographically in the per-bit basis indices.
    """
    _check_bits(bits)
    cols = enc.basis(bits[0])
    for b in bits[1:]:
        cols = kron(cols, enc.basis(b))
    return cols


def fixed_complement(enc: Encoding, n: int) -> np.ndarray:
    """Orthonormal basis of the complement gates must fix: all ambient product
    basis vectors with a fixed-complement direction on at least one factor.

    Columns are the n-fold Kronecker products of the per-factor columns of
    [basis0 | basis1 | fixed], in lexicographic order of the factor labels.
    """
    d = enc.ambient_dim
    if enc.fixed.shape[1] == 0:
        return np.zeros((d**n, 0), dtype=np.complex128)
    power = enc.frame
    for _ in range(n - 1):
        power = kron(power, enc.frame)
    labels = np.indices((d,) * n).reshape(n, -1)
    return power[:, (labels >= 2 * enc.bit_dim).any(axis=0)]


def classify_state(enc: Encoding, s: QuantumState, tol: float) -> StateClassification:
    """Classify a state as logical, a superposition, or outside the code.

    Logical(b) if the projection onto the subspace of b carries at least
    (1-tol) of the squared norm (the lowest such b on ties); outside the code
    if the projection onto the span of all logical subspaces carries less
    than (1-tol); superposition otherwise.  The weights are summed over each
    bit string's block of frame labels (_label_blocks) in the frame basis, so
    no d^n-row subspace basis is built.  Raises ValueError for a NaN or
    negative tol.
    """
    _check_tol(tol)
    if s.encoding is not enc and s.encoding != enc:
        raise ValueError("state was prepared under a different encoding")
    n = s.subsystem_count
    coeffs = _kron_apply([enc.frame.conj().T] * n, s.normalized())
    weights = (np.abs(coeffs) ** 2)[_label_blocks(enc.ambient_dim, enc.bit_dim, n)].sum(axis=1)
    best = int(np.argmax(weights))
    if weights[best] >= 1.0 - tol:
        return StateClassification(StateKind.LOGICAL, _bit_strings(n, [best])[0])
    if weights.sum() < 1.0 - tol:
        return StateClassification(StateKind.OUTSIDE_CODE)
    return StateClassification(StateKind.SUPERPOSITION)
