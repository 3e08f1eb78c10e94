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
from .linalg import _GATE_TOL, _count, _frozen, _in_range, _square, _unitary, tensor_to_matrix
from .synthesis import named_gate

__all__ = [
    "Circuit",
    "CircuitStep",
    "MAX_AMBIENT_DIM",
    "apply_gate",
    "run_circuit",
    "basis_probabilities",
]

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


def _check_targets(dim: int, targets, d: int, width: int) -> tuple[int, ...]:
    """The step rule for the targets of a square gate matrix of dimension
    dim: a d^k x d^k matrix acts on k distinct integer targets in
    range(width).  Returns the int targets or raises ValueError."""
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
    if dim != d**k:
        raise ValueError(
            f"gate of dimension {dim} cannot act on {k} target(s) "
            f"of dimension {d} (expected {d**k})"
        )
    return targets


@dataclass(frozen=True)
class Circuit:
    """Steps on `width` subsystems of an encoding.  Building it resolves and
    checks every step (targets, dimension, unitarity): a bad step raises
    ValueError here.  A gate is resolved and checked for unitarity once per
    distinct (name, phi) or array object, however many steps use it.  The
    steps keep read-only snapshots of their array gates, matrices and
    tensors alike, so circuits compare by encoding, width and the steps they
    run, whatever becomes of the caller's arrays."""

    encoding: Encoding
    width: int
    steps: tuple[CircuitStep, ...]
    # The checked (read-only matrix, int targets) pair of each step.
    _checked: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "width", _count(self.width, "circuit width"))
        if self.width < 1:
            raise ValueError("circuit width must be positive")
        # Keyed by (name, phi), or by id() of an array gate: `given` holds
        # every array for the whole loop, so no id is reused.  The value is
        # the gate the steps keep (an array gate's read-only snapshot) and
        # its checked matrix.
        given = tuple(self.steps)
        seen: dict[tuple[str, float | None] | int, tuple[np.ndarray | str, np.ndarray]] = {}
        steps, checked = [], []
        d = self.encoding.ambient_dim
        for index, step in enumerate(given):
            named = isinstance(step.gate, str)
            key = (step.gate, step.phi) if named else id(step.gate)
            if key not in seen:
                gate = step.gate if named else _frozen(np.asarray(step.gate, dtype=np.complex128))
                gm = named_gate(gate, self.encoding, step.phi) if named else gate
                gm, split = _square(tensor_to_matrix(gm) if gm.ndim == 3 else gm, "gate matrix")
                _check_targets(len(gm), step.targets, d, self.width)
                _unitary(gm, split, _GATE_TOL, f"step {index}: gate matrix is not unitary")
                seen[key] = gate, _frozen(gm)
            gate, gm = seen[key]
            targets = _check_targets(len(gm), step.targets, d, self.width)
            steps.append(step if named else CircuitStep(gate, step.targets, step.phi))
            checked.append((gm, targets))
        object.__setattr__(self, "steps", tuple(steps))
        object.__setattr__(self, "_checked", tuple(checked))


def _steps(c: Circuit, amplitudes: np.ndarray) -> np.ndarray:
    """c's checked steps applied to the amplitudes, unscaled."""
    d, n = c.encoding.ambient_dim, c.width
    psi = amplitudes.reshape([d] * n)
    for gm, targets in c._checked:
        k = len(targets)
        psi = np.moveaxis(psi, targets, range(k))
        psi = (gm @ psi.reshape(d**k, -1)).reshape([d] * n)
        psi = np.moveaxis(psi, range(k), targets)
    return psi.reshape(-1)


def _fold(c: Circuit, amplitudes: np.ndarray) -> QuantumState:
    """The state reached by applying c's checked steps to the amplitudes
    under the range rule (_in_range); ValueError beyond the double range."""
    return QuantumState(_in_range(lambda a: _steps(c, a), (amplitudes,), "circuit state"), c.encoding, c.width)


def apply_gate(s: QuantumState, g, targets) -> QuantumState:
    """Apply any gate a CircuitStep takes to the given target subsystems."""
    step = CircuitStep(g, targets)
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
