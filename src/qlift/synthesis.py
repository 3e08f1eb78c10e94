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
from dataclasses import dataclass, field

import numpy as np

from .encodings import Encoding, _bit_strings, _check_bits, _is_bits, _label_blocks
from .linalg import _check_tol, _ldexp, _prescale, _unitarity_residual, as_array
from .linalg import _kron_apply, is_unitary, principal_unitary_sqrt

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
_MISSING_LISTED = 16
_MAX_ARITY = 62


def _check_arities(arity_in: int, arity_out: int) -> None:
    """ValueError unless both arities lie in 1.._MAX_ARITY, where 2**arity
    fits the int64 (np.intp) that holds the image's indices and outputs."""
    if not (1 <= arity_in <= _MAX_ARITY and 1 <= arity_out <= _MAX_ARITY):
        raise ValueError(f"arities must lie between 1 and {_MAX_ARITY}, got {arity_in} and {arity_out}")


def _missing_inputs(arity: int, inputs) -> tuple[list[str], int]:
    """The first _MISSING_LISTED arity-bit strings, in index order, that are
    not among `inputs` (distinct arity-bit strings), and how many more are
    missing.  The walk visits at most len(inputs) + _MISSING_LISTED indices
    of at most _MAX_ARITY bits, so its cost grows with the inputs given, not
    with 2**arity."""
    taken = {int(x, 2) for x in inputs}
    absent = (i for i in range(2**arity) if i not in taken)
    listed = _bit_strings(arity, itertools.islice(absent, _MISSING_LISTED))
    return listed, 2**arity - len(taken) - len(listed)


@dataclass(frozen=True)
class ClassicalFunction:
    """Total truth table f: {0,1}^m -> {0,1}^n.  The read-only `image[i]` is
    the output of the i-th input, both read as binary numbers (_bit_strings)."""

    arity_in: int
    arity_out: int
    table: dict[str, str]
    image: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.arity_in
        _check_arities(m, self.arity_out)
        inputs = _bit_strings(m) if len(self.table) == 2**m else []
        if len(self.table) != 2**m or self.table.keys() != set(inputs):
            extra = sorted(k for k in self.table if not _is_bits(k, m))
            missing, more = _missing_inputs(m, self.table.keys() - set(extra))
            parts = [f"missing inputs {missing}" + (f" and {more} more" if more else "")] if missing else []
            parts += [f"unexpected inputs {extra}"] if extra else []
            raise ValueError("truth table is not total: " + ", ".join(parts))
        for k, v in self.table.items():
            _check_bits(v, self.arity_out, f"output for {k}")
        object.__setattr__(self, "table", dict(self.table))
        image = np.array([int(self.table[x], 2) for x in inputs], dtype=np.intp)
        image.setflags(write=False)
        object.__setattr__(self, "image", image)

    def __hash__(self):
        return hash((self.arity_in, self.arity_out, self.image.tobytes()))

    def __call__(self, bits: str) -> str:
        _check_bits(bits, self.arity_in)
        return self.table[bits]

    @property
    def is_reversible(self) -> bool:
        return self.arity_in == self.arity_out and len(set(self.image.tolist())) == self.image.size

    @classmethod
    def _from_image(cls, arity_in: int, arity_out: int, image) -> "ClassicalFunction":
        outputs = _bit_strings(arity_out)
        return cls(arity_in, arity_out, dict(zip(_bit_strings(arity_in), (outputs[y] for y in image))))

    @classmethod
    def from_pairs(cls, pairs) -> "ClassicalFunction":
        table = dict(pairs)
        if not table:
            raise ValueError("a truth table needs at least one (input, output) pair")
        key = next(iter(table))
        return cls(len(key), len(table[key]), table)

    @classmethod
    def negation(cls) -> "ClassicalFunction":
        return cls(1, 1, {"0": "1", "1": "0"})

    @classmethod
    def identity(cls, n: int = 1) -> "ClassicalFunction":
        return cls._from_image(n, n, range(2**n))

    @classmethod
    def constant(cls, arity_in: int, output: str) -> "ClassicalFunction":
        return cls(arity_in, len(output), dict.fromkeys(_bit_strings(arity_in), output))


def compose(f: ClassicalFunction, g: ClassicalFunction) -> ClassicalFunction:
    """The function x -> f(g(x))."""
    if g.arity_out != f.arity_in:
        raise ValueError("arity mismatch in composition")
    return ClassicalFunction._from_image(g.arity_in, f.arity_out, f.image[g.image])


def reversible_closure(f: ClassicalFunction) -> ClassicalFunction:
    """The bijection (x, y) -> (x, f(x) xor y) on m+n bits."""
    m, n = f.arity_in, f.arity_out
    x, y = np.divmod(np.arange(2 ** (m + n)), 2**n)
    return ClassicalFunction._from_image(m + n, m + n, x << n | (f.image[x] ^ y))


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
    dim = enc.ambient_dim**n
    # Label j of x's block goes to label j of f(x)'s; fixed-factor labels stay.
    blocks = _label_blocks(enc.ambient_dim, enc.bit_dim, n)
    image = np.arange(dim)
    image[blocks] = blocks[f.image]
    # One contraction of the row-major flattened P.  P is built complex so
    # that the contraction makes no converted copy of it; it is freed on
    # return, before the caller copies and checks the gate.
    frames = [enc.frame] * n + [enc.frame.conj()] * n
    perm = np.eye(dim, dtype=np.complex128)[:, image].reshape(-1)
    return _kron_apply(frames, perm).reshape(dim, dim)


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


def _controlled_block(u) -> np.ndarray:
    """Block matrix diag(I2, u) for any 2x2 matrix u.  Circuit files build
    C(...) gates through it and leave unitarity to `Circuit`, as for gates
    read from matrix files."""
    um = as_array(u, 2)
    if um.shape != (2, 2):
        raise ValueError(f"controlled() expects a 2x2 matrix, got {um.shape}")
    out = np.eye(4, dtype=np.complex128)
    out[2:, 2:] = um
    return out


def controlled(u) -> np.ndarray:
    """Block matrix diag(I2, u) for a 2x2 unitary u."""
    out = _controlled_block(u)
    if not is_unitary(out[2:, 2:], _UNITARY_TOL):
        raise ValueError("controlled() expects a unitary matrix")
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
        return not self.failures()

    @property
    def _complement_ok(self) -> bool:
        return self.complement_residual is None or self.complement_residual <= self.tol

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
        if not self._complement_ok:
            out.append(
                f"fixed complement is not preserved (residual {self.complement_residual:.3e})"
            )
        return out


def quantization_report(u, f: ClassicalFunction, enc: Encoding, tol: float) -> QuantizationReport:
    """Check whether u realizes f under enc, with per-subspace diagnostics.

    For irreversible f the check runs against the reversible closure
    |x>|y> -> |x>|f(x) xor y>.  Raises ValueError for a NaN or negative tol.
    """
    _check_tol(tol)
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
    unit_res = _unitarity_residual(um)
    # A u with entries far from unit scale has a unitarity residual above 1.
    # Only such a u pays for the search of its largest entry, and only an
    # extreme one is copied (a copy adds a matrix to peak memory) and scaled.
    frames = [enc.frame.conj().T] * n + [enc.frame.T] * n
    scaled, e = _prescale(um, extreme_only=True) if unit_res > 1.0 else (um, 0)
    # Squared entries of frame^dagger u frame: sq[i, j] is how much of frame
    # label j lands on label i, and mass[i, x] how much of x's block does
    # (indexing, unlike np.take, leaves i the innermost axis, so the column
    # sums below are pairwise).  A leak is the mass that lands outside the
    # target block, summed with the target zeroed: subtracting it from a
    # column total of k^n would leave ~1e-8 of rounding after the sqrt.
    sq = (np.abs(_kron_apply(frames, scaled.reshape(-1))) ** 2).reshape(dim, dim)
    blocks = _label_blocks(enc.ambient_dim, enc.bit_dim, n)
    mass = sq[:, blocks].sum(axis=2)
    mass[blocks[g.image], np.arange(2**n)[:, None]] = 0.0
    residuals = np.sqrt(mass.sum(axis=0)).tolist()
    if e:
        residuals = [_ldexp(res, e) for res in residuals]
    bits = _bit_strings(n)
    checks = [SubspaceCheck(x, bits[y], res, res <= tol) for x, y, res in zip(bits, g.image, residuals)]
    # The complement leak: mass moving from labels with a fixed factor onto logical ones.
    comp_res = None
    if enc.fixed.shape[1]:
        leak = sq[blocks.reshape(-1)]
        leak[:, blocks] = 0.0
        comp_res = _ldexp(float(np.sqrt(leak.sum())), e)
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
