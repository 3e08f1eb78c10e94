"""Gate application on multi-subsystem states and circuit execution.

Gates act on arbitrary target subsystems by moving the target axes to the
front of the amplitude tensor, applying the gate matrix, and moving them back;
no full-size Kronecker factor is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encodings import Encoding, QuantumState, encode_bits
from .linalg import as_array, is_unitary, tensor_to_matrix
from .synthesis import named_gate

__all__ = [
    "Circuit",
    "CircuitStep",
    "MAX_AMBIENT_DIM",
    "apply_gate",
    "run_circuit",
    "basis_probabilities",
]

_GATE_UNITARY_TOL = 1e-9

# Widest allowed circuit: d**width may not exceed 2**20 amplitudes.
MAX_AMBIENT_DIM = 2**20


@dataclass(frozen=True, eq=False)
class CircuitStep:
    """One gate application: a matrix, a gate tensor, or a builtin name."""

    gate: np.ndarray | str
    targets: tuple[int, ...]
    phi: float | None = None  # angle for the named R gate


@dataclass(frozen=True, eq=False)
class Circuit:
    encoding: Encoding
    width: int
    steps: tuple[CircuitStep, ...]

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("circuit width must be positive")
        object.__setattr__(self, "steps", tuple(self.steps))


def _resolve(step: CircuitStep, enc: Encoding) -> np.ndarray:
    if isinstance(step.gate, str):
        return named_gate(step.gate, enc, step.phi)
    g = np.asarray(step.gate)
    if g.ndim == 3:
        return tensor_to_matrix(g)
    return as_array(g, 2)


def apply_gate(s: QuantumState, g, targets) -> QuantumState:
    """Apply a gate matrix to the given target subsystems of a state."""
    gm = as_array(g, 2)
    d = s.encoding.ambient_dim
    n = s.subsystem_count
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target indices {targets}")
    for t in targets:
        if not 0 <= t < n:
            raise ValueError(f"target index {t} out of range for width {n}")
    k = len(targets)
    if gm.shape != (d**k, d**k):
        raise ValueError(
            f"gate of dimension {gm.shape[0]} cannot act on {k} target(s) "
            f"of dimension {d} (expected {d**k})"
        )
    if not is_unitary(gm, _GATE_UNITARY_TOL):
        raise ValueError("gate matrix is not unitary")
    psi = s.amplitudes.reshape([d] * n)
    psi = np.moveaxis(psi, targets, range(k))
    psi = (gm @ psi.reshape(d**k, -1)).reshape([d] * n)
    psi = np.moveaxis(psi, range(k), targets)
    return QuantumState(psi.reshape(-1), s.encoding, n)


def run_circuit(c: Circuit, input_bits: str) -> QuantumState:
    """Encode the input bits and fold the circuit's gates over the state."""
    if len(input_bits) != c.width:
        raise ValueError(
            f"input has {len(input_bits)} bits but the circuit width is {c.width}"
        )
    if c.encoding.ambient_dim**c.width > MAX_AMBIENT_DIM:
        raise ValueError(
            f"circuit state space {c.encoding.ambient_dim}**{c.width} exceeds "
            f"the {MAX_AMBIENT_DIM}-amplitude cap"
        )
    state = encode_bits(c.encoding, input_bits)
    for step in c.steps:
        state = apply_gate(state, _resolve(step, c.encoding), step.targets)
    return state


def basis_probabilities(s: QuantumState) -> list[tuple[int, float]]:
    """(basis index, probability) for every ambient basis index."""
    psi = s.normalized()
    probs = np.abs(psi) ** 2
    return [(i, float(p)) for i, p in enumerate(probs)]
