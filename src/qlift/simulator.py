"""Gate application on multi-subsystem states and circuit execution.

Gates act on arbitrary target subsystems by moving the target axes to the
front of the amplitude tensor, applying the gate matrix, and moving them back;
no full-size Kronecker factor is ever materialized.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class CircuitStep:
    """One gate application: a matrix, a gate tensor, or a builtin name.

    Steps compare by value: a named gate by its name, an array gate by
    np.array_equal, together with the targets and the angle.
    """

    gate: np.ndarray | str
    targets: tuple[int, ...]
    phi: float | None = None  # angle for the named R gate

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))

    def __eq__(self, other):
        if not isinstance(other, CircuitStep):
            return NotImplemented
        a, b = self.gate, other.gate
        same_gate = isinstance(a, str) == isinstance(b, str) and (
            a == b if isinstance(a, str) else np.array_equal(a, b)
        )
        return same_gate and (self.targets, self.phi) == (other.targets, other.phi)

    def __hash__(self):
        gate = self.gate if isinstance(self.gate, str) else np.shape(self.gate)
        return hash((gate, self.targets, self.phi))


def _check_step(gate, targets, d: int, width: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The step rule: a d^k x d^k matrix acts on k distinct integer targets in
    range(width).  Returns (complex matrix, int targets) or raises ValueError."""
    gm = as_array(gate, 2)
    try:
        targets = tuple(map(operator.index, targets))
    except TypeError:
        raise ValueError(f"target indices must be integers, got {tuple(targets)}") from None
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target indices {targets}")
    for t in targets:
        if not 0 <= t < width:
            raise ValueError(f"target index {t} out of range for width {width}")
    k = len(targets)
    if gm.shape != (d**k, d**k):
        raise ValueError(
            f"gate of dimension {gm.shape[0]} cannot act on {k} target(s) "
            f"of dimension {d} (expected {d**k})"
        )
    return gm, targets


def _resolve(step: CircuitStep, enc: Encoding) -> np.ndarray:
    if isinstance(step.gate, str):
        return named_gate(step.gate, enc, step.phi)
    return tensor_to_matrix(step.gate) if np.ndim(step.gate) == 3 else step.gate


@dataclass(frozen=True)
class Circuit:
    """Steps on `width` subsystems of an encoding.  Building it resolves and
    checks every step (targets, dimension, unitarity): a bad step raises
    ValueError here.  Circuits compare by encoding, width and steps."""

    encoding: Encoding
    width: int
    steps: tuple[CircuitStep, ...]
    # The checked (read-only matrix, int targets) pair of each step.
    _checked: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("circuit width must be positive")
        object.__setattr__(self, "steps", tuple(self.steps))
        checked = []
        for step in self.steps:
            gm, targets = _check_step(
                _resolve(step, self.encoding), step.targets, self.encoding.ambient_dim, self.width
            )
            if not is_unitary(gm, _GATE_UNITARY_TOL):
                raise ValueError("gate matrix is not unitary")
            gm = gm.copy()
            gm.setflags(write=False)
            checked.append((gm, targets))
        object.__setattr__(self, "_checked", tuple(checked))


def _fold(c: Circuit, amplitudes: np.ndarray) -> QuantumState:
    """The state reached by applying c's checked steps to the amplitudes."""
    d, n = c.encoding.ambient_dim, c.width
    psi = amplitudes.reshape([d] * n)
    for gm, targets in c._checked:
        k = len(targets)
        psi = np.moveaxis(psi, targets, range(k))
        psi = (gm @ psi.reshape(d**k, -1)).reshape([d] * n)
        psi = np.moveaxis(psi, range(k), targets)
    return QuantumState(psi.reshape(-1), c.encoding, n)


def apply_gate(s: QuantumState, g, targets) -> QuantumState:
    """Apply a gate matrix to the given target subsystems of a state."""
    step = CircuitStep(as_array(g, 2), targets)
    return _fold(Circuit(s.encoding, s.subsystem_count, (step,)), s.amplitudes)


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
    return _fold(c, encode_bits(c.encoding, input_bits).amplitudes)


def basis_probabilities(s: QuantumState) -> list[tuple[int, float]]:
    """(basis index, probability) for every ambient basis index."""
    psi = s.normalized()
    probs = np.abs(psi) ** 2
    return [(i, float(p)) for i, p in enumerate(probs)]
