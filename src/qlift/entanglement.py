"""Bipartite entanglement analysis via the coefficient-matrix decomposition.

A bipartite state with amplitudes x_{ij} on basis vectors i kron j has the
coefficient matrix M[i, j] = x_{ij}; its singular values are the Schmidt
coefficients, and the state is separable exactly when only one of them is
nonzero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .encodings import QuantumState
from .linalg import _dims, _unit, as_array, svd

__all__ = [
    "SchmidtResult",
    "Separability",
    "coefficient_matrix",
    "schmidt",
    "classify_bipartite",
]

# A singular value counts toward the rank iff it exceeds this fraction of the
# largest one.
RANK_TOL = 1e-10


def _amplitudes(s) -> np.ndarray:
    if isinstance(s, QuantumState):
        return s.amplitudes
    return as_array(s, 1)


@dataclass(frozen=True, eq=False)
class SchmidtResult:
    """Schmidt coefficients and the local bases that diagonalize the state.

    coefficients are descending and normalized (squares sum to 1 for a
    normalized input); left_basis/right_basis hold the local basis vectors as
    columns, so that sum_k coeff[k] * kron(left[:,k], right[:,k]) reconstructs
    the normalized state.
    """

    coefficients: np.ndarray
    rank: int
    left_basis: np.ndarray
    right_basis: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return ((self.left_basis * self.coefficients) @ self.right_basis.T).reshape(-1)


class Separability(enum.Enum):
    SEPARABLE = "separable"
    ENTANGLED = "entangled"


def coefficient_matrix(s, dim_a: int, dim_b: int) -> np.ndarray:
    """Amplitudes arranged as a dim_a x dim_b matrix (row-major reshape)."""
    amps = _amplitudes(s)
    dim_a, dim_b = _dims(dim_a, dim_b, "subsystem dimension")
    if amps.size != dim_a * dim_b:
        raise ValueError(
            f"state dimension {amps.size} does not factor as {dim_a} x {dim_b}"
        )
    return amps.reshape(dim_a, dim_b)


def schmidt(s, dim_a: int, dim_b: int) -> SchmidtResult:
    """Schmidt decomposition of a bipartite state (normalized first)."""
    amps = _amplitudes(s)
    if not amps.any():
        raise ValueError("cannot decompose the zero vector")
    m = coefficient_matrix(_unit(amps), dim_a, dim_b)
    u, vals, v = svd(m)
    if len(vals) == 1:
        # The one coefficient of a unit state is 1, where the QR's norm can round up.
        vals = np.ones(1)
    rank = int(np.sum(vals > RANK_TOL * vals[0])) if vals[0] > 0 else 0
    return SchmidtResult(vals, rank, u, v.conj())


def _separability(rank: int) -> Separability:
    return Separability.SEPARABLE if rank == 1 else Separability.ENTANGLED


def classify_bipartite(s, dim_a: int, dim_b: int) -> Separability:
    """Separable iff the Schmidt rank is 1, entangled otherwise."""
    return _separability(schmidt(s, dim_a, dim_b).rank)
