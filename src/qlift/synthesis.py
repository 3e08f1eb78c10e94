"""Gate synthesis from classical truth tables.

A reversible function is synthesized as the unitary sending, for each input
bit string, the i-th basis vector of the input's logical subspace to the i-th
basis vector of the image's logical subspace, acting as identity on every
ambient direction involving a fixed-complement factor.  Irreversible functions
go through the reversible closure |x>|y> -> |x>|f(x) xor y>.

The module also checks whether an arbitrary unitary realizes a given function
under an encoding (subspace-onto-subspace, complement preserved) and can
enumerate every 0/1 permutation matrix that does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .encodings import Encoding, _check_bits
from .linalg import as_array, is_unitary, kron_apply, principal_unitary_sqrt

__all__ = [
    "ClassicalFunction",
    "SynthesizedGate",
    "SubspaceCheck",
    "QuantizationReport",
    "quantize_reversible",
    "quantize_irreversible",
    "reversible_closure",
    "compose",
    "controlled",
    "sqrt_gate",
    "quantization_report",
    "is_quantization_of",
    "enumerate_permutation_quantizations",
    "hadamard",
    "phase_gate",
    "cnot",
    "swap",
    "named_gate",
    "NAMED_GATES",
]

_UNITARY_TOL = 1e-10
_CHECK_TOL = 1e-9
_ENUMERATION_DIM_CAP = 8


@dataclass(frozen=True)
class ClassicalFunction:
    """Total truth table f: {0,1}^m -> {0,1}^n."""

    arity_in: int
    arity_out: int
    table: dict[str, str]

    def __post_init__(self):
        if self.arity_in < 1 or self.arity_out < 1:
            raise ValueError("arities must be positive")
        inputs = {format(i, f"0{self.arity_in}b") for i in range(2**self.arity_in)}
        got = set(self.table)
        if got != inputs:
            missing = sorted(inputs - got)
            extra = sorted(got - inputs)
            parts = []
            if missing:
                parts.append(f"missing inputs {missing}")
            if extra:
                parts.append(f"unexpected inputs {extra}")
            raise ValueError("truth table is not total: " + ", ".join(parts))
        for k, v in self.table.items():
            _check_bits(v, self.arity_out, f"output for {k}")
        object.__setattr__(self, "table", dict(self.table))

    def __call__(self, bits: str) -> str:
        _check_bits(bits, self.arity_in)
        return self.table[bits]

    @property
    def is_reversible(self) -> bool:
        return self.arity_in == self.arity_out and len(set(self.table.values())) == len(self.table)

    @classmethod
    def from_pairs(cls, pairs) -> "ClassicalFunction":
        table = dict(pairs)
        key = next(iter(table))
        return cls(len(key), len(table[key]), table)

    @classmethod
    def negation(cls) -> "ClassicalFunction":
        return cls(1, 1, {"0": "1", "1": "0"})

    @classmethod
    def identity(cls, n: int = 1) -> "ClassicalFunction":
        return cls(n, n, {format(i, f"0{n}b"): format(i, f"0{n}b") for i in range(2**n)})

    @classmethod
    def constant(cls, arity_in: int, output: str) -> "ClassicalFunction":
        return cls(
            arity_in,
            len(output),
            {format(i, f"0{arity_in}b"): output for i in range(2**arity_in)},
        )


def compose(f: ClassicalFunction, g: ClassicalFunction) -> ClassicalFunction:
    """The function x -> f(g(x))."""
    if g.arity_out != f.arity_in:
        raise ValueError("arity mismatch in composition")
    return ClassicalFunction(
        g.arity_in, f.arity_out, {x: f(g(x)) for x in g.table}
    )


def _xor(a: str, b: str) -> str:
    return "".join("1" if x != y else "0" for x, y in zip(a, b))


def reversible_closure(f: ClassicalFunction) -> ClassicalFunction:
    """The bijection (x, y) -> (x, f(x) xor y) on m+n bits."""
    m, n = f.arity_in, f.arity_out
    table = {}
    for i in range(2**m):
        x = format(i, f"0{m}b")
        fx = f(x)
        for j in range(2**n):
            y = format(j, f"0{n}b")
            table[x + y] = x + _xor(fx, y)
    return ClassicalFunction(m + n, m + n, table)


@dataclass(frozen=True, eq=False)
class SynthesizedGate:
    """A unitary realizing a classical function under an encoding."""

    matrix: np.ndarray
    encoding: Encoding
    source: ClassicalFunction
    rule: str
    subsystem_count: int

    def __post_init__(self):
        m = as_array(self.matrix, 2).copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if not is_unitary(m, _UNITARY_TOL):
            raise ValueError("synthesized gate is not unitary")


def _reversible_matrix(f: ClassicalFunction, enc: Encoding) -> np.ndarray:
    """W P W^dagger for a reversible f, with W = frame^(kron n) and P the
    permutation of frame labels that f induces; unchecked."""
    n = f.arity_in
    d, k = enc.ambient_dim, enc.bit_dim
    dim = d**n
    # Frame labels per factor; label // k is the bit on logical directions and
    # 2 or more on fixed ones.  A label tuple with a fixed factor stays put;
    # the others get the image bits and keep their in-subspace indices.
    labels = np.indices((d,) * n).reshape(n, -1)
    bits = labels // k
    logical = (bits < 2).all(axis=0)
    outputs = np.array([list(f(format(i, f"0{n}b"))) for i in range(2**n)], dtype=int)
    out_bits = outputs[np.ravel_multi_index(np.minimum(bits, 1), (2,) * n)].T
    image = np.ravel_multi_index(np.where(logical, out_bits * k + labels % k, labels), (d,) * n)
    # One contraction of the row-major flattened P.  P is built complex so
    # that the contraction makes no converted copy of it; it is freed on
    # return, before the caller copies and checks the gate.
    frames = [enc.frame] * n + [enc.frame.conj()] * n
    perm = np.eye(dim, dtype=np.complex128)[:, image].reshape(-1)
    return kron_apply(frames, perm).reshape(dim, dim)


def quantize_reversible(f: ClassicalFunction, enc: Encoding) -> SynthesizedGate:
    """Unitary counterpart of a reversible function under an encoding.

    Raises ValueError for irreversible inputs (use quantize_irreversible).
    """
    if not f.is_reversible:
        raise ValueError(
            "function is not reversible (not a bijection with equal arities); "
            "use quantize_irreversible for the XOR-target construction"
        )
    return SynthesizedGate(_reversible_matrix(f, enc), enc, f, "reversible", f.arity_in)


def quantize_irreversible(f: ClassicalFunction, enc: Encoding) -> SynthesizedGate:
    """Gate on m+n subsystems implementing |x>|y> -> |x>|f(x) xor y>."""
    closed = reversible_closure(f)
    return SynthesizedGate(_reversible_matrix(closed, enc), enc, f, "irreversible", closed.arity_in)


def controlled(u) -> np.ndarray:
    """Block matrix diag(I2, u) for a 2x2 unitary u."""
    um = as_array(u, 2)
    if um.shape != (2, 2):
        raise ValueError(f"controlled() expects a 2x2 matrix, got {um.shape}")
    if not is_unitary(um, _UNITARY_TOL):
        raise ValueError("controlled() expects a unitary matrix")
    out = np.eye(4, dtype=np.complex128)
    out[2:, 2:] = um
    return out


def sqrt_gate(g: SynthesizedGate) -> np.ndarray:
    """Principal square root of a synthesized gate's matrix."""
    return principal_unitary_sqrt(g.matrix)


@dataclass(frozen=True)
class SubspaceCheck:
    bits_in: str
    bits_out: str
    residual: float
    ok: bool

    def describe(self) -> str:
        verdict = "ok" if self.ok else "VIOLATED"
        return (
            f"logical subspace '{self.bits_in}' -> '{self.bits_out}': "
            f"{verdict} (residual {self.residual:.3e})"
        )


@dataclass(frozen=True)
class QuantizationReport:
    """Outcome of checking a unitary against a classical function."""

    unitary: bool
    unitarity_residual: float
    subspace_checks: tuple[SubspaceCheck, ...]
    complement_residual: float | None
    tol: float

    @property
    def ok(self) -> bool:
        if not self.unitary:
            return False
        if any(not c.ok for c in self.subspace_checks):
            return False
        if self.complement_residual is not None and self.complement_residual > self.tol:
            return False
        return True

    def failures(self) -> list[str]:
        out = []
        if not self.unitary:
            out.append(f"matrix is not unitary (residual {self.unitarity_residual:.3e})")
        for c in self.subspace_checks:
            if not c.ok:
                out.append(
                    f"image of logical subspace '{c.bits_in}' leaks outside "
                    f"logical subspace '{c.bits_out}' (residual {c.residual:.3e})"
                )
        if self.complement_residual is not None and self.complement_residual > self.tol:
            out.append(
                f"fixed complement is not preserved (residual {self.complement_residual:.3e})"
            )
        return out


def quantization_report(u, f: ClassicalFunction, enc: Encoding, tol: float) -> QuantizationReport:
    """Check whether u realizes f under enc, with per-subspace diagnostics.

    For irreversible f the check runs against the reversible closure
    |x>|y> -> |x>|f(x) xor y>.
    """
    um = as_array(u, 2)
    if um.shape[0] != um.shape[1]:
        raise ValueError("expected a square matrix")
    g = f if f.is_reversible else reversible_closure(f)
    n = g.arity_in
    dim = enc.ambient_dim**n
    if um.shape != (dim, dim):
        raise ValueError(
            f"matrix dimension {um.shape[0]} does not match d^n = "
            f"{enc.ambient_dim}^{n} = {dim}"
        )
    eye = np.eye(dim)
    unit_res = float(np.linalg.norm(um.conj().T @ um - eye))
    # Squared entries of frame^dagger u frame summed per (row class, column
    # class) tuple: mass[i, j] is how much of class tuple j lands in tuple i.
    frames = [enc.frame.conj().T] * n + [enc.frame.T] * n
    coeffs = kron_apply(frames, um.reshape(-1))
    r = enc.frame_classes.shape[0]
    mass = kron_apply([enc.frame_classes] * (2 * n), np.abs(coeffs) ** 2).reshape(r**n, r**n)
    # Class-tuple index of each bit string.  A leak is the mass that lands
    # outside its target, summed with the target zeroed: subtracting it from
    # a column total of k^n would leave ~1e-8 of rounding after the sqrt.
    code = np.ravel_multi_index(np.unravel_index(np.arange(2**n), (2,) * n), (r,) * n)
    inputs = [format(i, f"0{n}b") for i in range(2**n)]
    outputs = [g(x) for x in inputs]
    leak = mass[:, code]
    leak[code[[int(y, 2) for y in outputs]], np.arange(2**n)] = 0.0
    residuals = np.sqrt(leak.sum(axis=0)).tolist()
    checks = [SubspaceCheck(x, y, res, res <= tol) for x, y, res in zip(inputs, outputs, residuals)]
    comp_res = None
    if r == 3:
        leak = mass[code]
        leak[:, code] = 0.0
        comp_res = float(np.sqrt(leak.sum()))
    return QuantizationReport(unit_res <= tol, unit_res, tuple(checks), comp_res, tol)


def is_quantization_of(u, f: ClassicalFunction, enc: Encoding, tol: float) -> bool:
    """True iff u maps every input's logical subspace onto the image's and
    preserves the fixed complement (and is unitary), all to within tol."""
    return quantization_report(u, f, enc, tol).ok


def enumerate_permutation_quantizations(
    f: ClassicalFunction, enc: Encoding
) -> list[np.ndarray]:
    """All 0/1 permutation matrices realizing a reversible f under enc.

    Brute force over the permutations of the ambient basis, in lexicographic
    order of the one-line permutation (column j maps to row p[j]).  Refuses
    ambient dimensions above 8.
    """
    if not f.is_reversible:
        raise ValueError("enumeration is defined for reversible functions only")
    dim = enc.ambient_dim**f.arity_in
    if dim > _ENUMERATION_DIM_CAP:
        raise ValueError(
            f"ambient dimension {dim} exceeds the brute-force cap of {_ENUMERATION_DIM_CAP}"
        )
    eye = np.eye(dim, dtype=np.complex128)
    out = []
    for perm in itertools.permutations(range(dim)):
        p = eye[:, perm]
        if is_quantization_of(p, f, enc, _CHECK_TOL):
            out.append(p)
    return out


# Fixed gate matrices.  H uses the unitary 1/sqrt(2) normalization; the
# 1/2-normalized variant occasionally quoted is not unitary.
def hadamard() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


def phase_gate(phi: float) -> np.ndarray:
    """diag(1, e^{i phi})."""
    if not np.isfinite(phi):
        raise ValueError(f"phase angle must be finite, got {phi!r}")
    return np.array([[1, 0], [0, np.exp(1j * phi)]], dtype=np.complex128)


def cnot() -> np.ndarray:
    return np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
    )


def swap() -> np.ndarray:
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
    )


# The gates callable by bare name: name -> matrix under a given encoding.
NAMED_GATES = {
    "NOT": lambda enc: quantize_reversible(ClassicalFunction.negation(), enc).matrix,
    "SQRT_NOT": lambda enc: principal_unitary_sqrt(named_gate("NOT", enc)),
    "H": lambda enc: hadamard(),
    "CNOT": lambda enc: cnot(),
    "SWAP": lambda enc: swap(),
}


def named_gate(name: str, enc: Encoding, phi: float | None = None) -> np.ndarray:
    """Resolve a named gate to its matrix under an encoding.

    NOT and SQRT_NOT are synthesized for the encoding; H, R, CNOT and SWAP are
    fixed qubit-sized matrices (dimension checks happen at application time).
    R is the one parameterized name and takes the angle `phi`.
    """
    if name == "R":
        if phi is None:
            raise ValueError("R requires an angle argument")
        return phase_gate(phi)
    try:
        make = NAMED_GATES[name]
    except KeyError:
        raise ValueError(f"unknown gate name {name!r}") from None
    return make(enc)
