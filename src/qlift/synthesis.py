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

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .encodings import Encoding, _bit_strings, _check_bits, _is_bits, _layout
from .linalg import _GATE_TOL, _check_tol, _count, _framed_permutation, _frozen, _kron_apply, _ldexp
from .linalg import _prescale, _square, _unitarity_residual, _unitary, as_array, principal_unitary_sqrt

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

_ENUMERATION_DIM_CAP = 8
_MISSING_LISTED = 16
_MAX_ARITY = 62


def _check_arities(arity_in: int, arity_out: int) -> tuple[int, int]:
    """The arities as ints (_count), or ValueError unless both lie in
    1.._MAX_ARITY, where 2**arity fits the np.intp of the image's entries."""
    arity_in, arity_out = _count(arity_in, "arity"), _count(arity_out, "arity")
    if not (1 <= arity_in <= _MAX_ARITY and 1 <= arity_out <= _MAX_ARITY):
        raise ValueError(f"arities must lie between 1 and {_MAX_ARITY}, got {arity_in} and {arity_out}")
    return arity_in, arity_out


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
    the output of the i-th input, both read as binary numbers (_bit_strings),
    and `is_reversible` whether f is a bijection with equal arities; both
    are computed once, when f is built.  The outputs are checked in one
    batch; only a table that fails it takes the check entry by entry, in
    the table's order, whose first bad output words the ValueError."""

    arity_in: int
    arity_out: int
    table: dict[str, str]
    image: np.ndarray = field(init=False, repr=False, compare=False)
    is_reversible: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, n = _check_arities(self.arity_in, self.arity_out)
        object.__setattr__(self, "arity_in", m)
        object.__setattr__(self, "arity_out", n)
        inputs = _bit_strings(m) if len(self.table) == 2**m else []
        if len(self.table) != 2**m or self.table.keys() != set(inputs):
            extra = sorted(k for k in self.table if not _is_bits(k, m))
            missing, more = _missing_inputs(m, self.table.keys() - set(extra))
            parts = [f"missing inputs {missing}" + (f" and {more} more" if more else "")] if missing else []
            parts += [f"unexpected inputs {extra}"] if extra else []
            raise ValueError("truth table is not total: " + ", ".join(parts))
        outputs = [self.table[x] for x in inputs]
        try:
            joined = "".join(outputs)
        except TypeError:  # an output that is not a str
            joined = None
        if joined is None or set(map(len, outputs)) != {n} or joined.count("0") + joined.count("1") != len(joined):
            for k, v in self.table.items():
                _check_bits(v, n, f"output for {k}")
        object.__setattr__(self, "table", dict(self.table))
        image = np.array([int(y, 2) for y in outputs], dtype=np.intp)
        image.setflags(write=False)
        object.__setattr__(self, "image", image)
        object.__setattr__(self, "is_reversible", m == n and len(set(outputs)) == len(outputs))

    def __hash__(self):
        return hash((self.arity_in, self.arity_out, self.image.tobytes()))

    def __call__(self, bits: str) -> str:
        _check_bits(bits, self.arity_in)
        return self.table[bits]

    @functools.cached_property
    def _closure(self) -> "ClassicalFunction":
        """reversible_closure(self), built on first use and held here."""
        m, n = self.arity_in, self.arity_out
        x, y = np.divmod(np.arange(2 ** (m + n)), 2**n)
        return ClassicalFunction._from_image(m + n, m + n, x << n | (self.image[x] ^ y))

    @classmethod
    def _from_image(cls, arity_in: int, arity_out: int, image) -> "ClassicalFunction":
        outputs = map(_bit_strings(arity_out).__getitem__, np.asarray(image).tolist())
        return cls(arity_in, arity_out, dict(zip(_bit_strings(arity_in), outputs)))

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
    """The bijection (x, y) -> (x, f(x) xor y) on m+n bits: built once per
    f and held on it, so every call on f, such as quantize_irreversible's
    and each quantization_report's, returns that same function."""
    return f._closure


@dataclass(frozen=True, eq=False)
class SynthesizedGate:
    """A unitary realizing a classical function under an encoding, held
    read-only (_frozen): a caller's array or a view of one is copied."""

    matrix: np.ndarray
    encoding: Encoding
    source: ClassicalFunction

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(np.asarray(self.matrix, dtype=np.complex128)))
        _unitary(*_square(self.matrix, "synthesized gate is not unitary"), _GATE_TOL, "synthesized gate is not unitary")


def _reversible_matrix(f: ClassicalFunction, enc: Encoding) -> np.ndarray:
    """W P W^dagger (_framed_permutation) for a reversible f, with W = frame^(kron n)
    and P the permutation of the layout's columns (_layout) that f induces;
    unchecked.  Under a permutation frame W = I and P is the gate."""
    n = f.arity_in
    table, aligned, _ = _layout(enc, n)
    # Column j of x's row goes to column j of f(x)'s; the other columns stay.
    image = np.arange(enc.ambient_dim**n)
    image[table] = table[f.image]
    return _framed_permutation(image, [] if aligned else [enc.frame] * n + [enc.frame.conj()] * n)


def quantize_reversible(f: ClassicalFunction, enc: Encoding) -> SynthesizedGate:
    """Unitary counterpart of a reversible function under an encoding.

    Raises ValueError for irreversible inputs (use quantize_irreversible).
    """
    if not f.is_reversible:
        raise ValueError(
            "function is not reversible (not a bijection with equal arities); "
            "use quantize_irreversible for the XOR-target construction"
        )
    return SynthesizedGate(_reversible_matrix(f, enc), enc, f)


def quantize_irreversible(f: ClassicalFunction, enc: Encoding) -> SynthesizedGate:
    """Gate on m+n subsystems implementing |x>|y> -> |x>|f(x) xor y>."""
    return SynthesizedGate(_reversible_matrix(reversible_closure(f), enc), enc, f)


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
    _unitary(*_square(out[2:, 2:], "controlled()"), _GATE_TOL, "controlled() expects a unitary matrix")
    return out


def sqrt_gate(g: SynthesizedGate) -> np.ndarray:
    """Principal square root of a synthesized gate's matrix.  A matrix that
    synthesis built takes no eigensolver (principal_unitary_sqrt): cycle by
    cycle under a permutation frame, and as W sqrt(P) W^dagger, from its
    record, under a rotated frame W.  Any other matrix takes the eigen route."""
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

    u is checked against the reversible closure |x>|y> -> |x>|f(x) xor y>
    of f (reversible_closure, on m+k bits) when f is irreversible, and also
    when f is a bijection but u has the closure's dimension d^(m+k) rather
    than f's own d^m: the gate quantize_irreversible builds from it.  For a
    bijection the two dimensions always differ.  Raises ValueError for a
    NaN or negative tol.
    """
    _check_tol(tol)
    um, split = _square(u, "quantization_report")
    d = enc.ambient_dim
    g = f if f.is_reversible and len(um) == d**f.arity_in else reversible_closure(f)
    n = g.arity_in
    dim = d**n
    if len(um) != dim:
        expected = f"d^n = {d}^{n} = {dim}"
        if f.is_reversible:
            m = f.arity_in
            expected = f"d^n = {d}^{m} = {d**m}, nor the reversible closure's {d}^{n} = {dim}"
        raise ValueError(f"matrix dimension {len(um)} does not match {expected}")
    # Under a permutation frame u's one split serves the residual and the leaks.
    _, aligned, group = _layout(enc, n)
    unit_res = _unitarity_residual(um, split)
    # A u with entries far from unit scale has a unitarity residual above 1.
    # Only such a u pays for the search of its largest entry, and only an
    # extreme one is copied (a copy adds a matrix to peak memory) and scaled.
    # Scaling by a power of two adds no nonzero entry, so u's split holds for
    # the copy: an entry that underflows leaks 0 either way.
    scaled, e = _prescale(um, extreme_only=True) if unit_res > 1.0 else (um, 0)
    # Column j of c = W^dagger u W (W = frame^(kron n), or I in the layout's
    # numbering under a permutation frame) leaks the mass |c_ij|^2 it puts
    # on rows i outside its target group: f's image of its own, or the fixed
    # group 2**n.  By group, the leaks are the squared subspace and, last,
    # complement residuals.  A lone column (_lone_entries) leaks its one
    # entry's mass or nothing.  The other columns, all of c when none is
    # lone, are masked on their target rows, not subtracted from column
    # totals, which avoids ~1e-8 of rounding after the sqrt; taking the rows
    # in strips of ~2**16 entries bounds the temporaries to about 1 MiB.
    c = scaled
    if not aligned:
        frames = [enc.frame.conj().T] * n + [enc.frame.T] * n
        c = _kron_apply(frames, scaled.reshape(-1)).reshape(dim, dim)
    target = np.concatenate((g.image, [2**n]))[group]
    leak = np.zeros(dim)
    free = np.ones(dim, dtype=bool)  # the columns that are not lone
    if aligned:
        rows, lone = split
        sq = np.abs(c[rows, lone])
        sq *= sq
        sq[group[rows] == target[lone]] = 0.0
        leak[lone] = sq
        free[lone] = False
    rest = free.nonzero()[0]
    h = max(1, 2**16 // dim)
    # The other columns are gathered in c's memory order (take keeps rows
    # contiguous, [:, rest] columns), so that each sums its rows in the
    # order of the strip pass over all of c, bit for bit.
    by_rows = abs(c.strides[0]) >= abs(c.strides[1])
    for i in range(0, dim if len(rest) else 0, h):
        sq = c[i : i + h]
        if len(rest) < dim:
            sq = sq.take(rest, axis=1) if by_rows else sq[:, rest]
        sq = np.abs(sq)
        sq *= sq
        sq[group[i : i + h, None] == target[rest]] = 0.0
        leak[rest] += sq.sum(axis=0)
    residuals = np.sqrt(np.bincount(group, leak, minlength=2**n + 1)).tolist()
    if e:
        residuals = [_ldexp(res, e) for res in residuals]
    bits = _bit_strings(n)
    # Each check's fields are set as SubspaceCheck's __init__ sets them, in
    # field order, without a call of that __init__ per check.
    checks = tuple(map(object.__new__, itertools.repeat(SubspaceCheck, len(bits))))
    for check, x, y, res in zip(checks, bits, g.image.tolist(), residuals):
        check.__dict__.update(bits_in=x, bits_out=bits[y], residual=res, ok=res <= tol)
    comp_res = residuals[-1] if enc.fixed.shape[1] else None
    return QuantizationReport(unit_res <= tol, unit_res, checks, comp_res, tol)


def is_quantization_of(u, f: ClassicalFunction, enc: Encoding, tol: float) -> bool:
    """True iff u maps every input's logical subspace onto the image's and
    preserves the fixed complement (and is unitary), all to within tol."""
    return quantization_report(u, f, enc, tol).ok


def enumerate_permutation_quantizations(
    f: ClassicalFunction, enc: Encoding
) -> list[np.ndarray]:
    """All 0/1 permutation matrices realizing a reversible f under enc, in
    lexicographic order of the one-line permutation p (column j maps to row
    p[j]).  Refuses ambient dimensions above 8.

    P = eye[:, p] realizes f when P A Pᵀ = B, that is B[p[a], p[b]] = A[a, b],
    for the projector A onto each input's logical subspace with B that of its
    image, and for A = B the projector onto the fixed complement.  A
    depth-first search assigns p[0], p[1], ... in increasing value order and
    drops a branch as soon as an entry among the assigned indices is off by
    more than sqrt(2)·tol.  For a permutation, ‖P A Pᵀ − B‖_F is sqrt(2)
    times the residual quantization_report computes, so the search drops no
    permutation the report accepts; each complete one is confirmed with
    is_quantization_of.
    """
    if not f.is_reversible:
        raise ValueError("enumeration is defined for reversible functions only")
    n = f.arity_in
    dim = enc.ambient_dim**n
    if dim > _ENUMERATION_DIM_CAP:
        raise ValueError(
            f"ambient dimension {dim} exceeds the enumeration cap of {_ENUMERATION_DIM_CAP}"
        )
    # proj[a, b, x] is entry (a, b) of the projector onto the columns of W
    # in group x of the layout; group 2**n is the fixed complement.
    eye = np.eye(dim, dtype=np.complex128)
    _, aligned, group = _layout(enc, n)
    w = eye if aligned else _kron_apply([enc.frame] * n, eye)
    proj = (w[:, None, :] * w.conj()) @ (group[:, None] == np.arange(2**n + 1))
    image = proj[:, :, np.append(f.image, 2**n)]
    bound = np.sqrt(2) * _GATE_TOL
    out = []

    def extend(p: list[int]) -> None:
        a = len(p)
        if a == dim:
            candidate = eye[:, p]
            if is_quantization_of(candidate, f, enc, _GATE_TOL):
                out.append(candidate)
            return
        for v in range(dim):
            if v not in p and (np.abs(image[v, p + [v]] - proj[a, : a + 1]) <= bound).all():
                extend(p + [v])

    extend([])
    return out


# Fixed gate matrices.  H uses the unitary 1/sqrt(2) normalization; the
# 1/2-normalized variant occasionally quoted is not unitary.
def hadamard() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


def phase_gate(phi: float) -> np.ndarray:
    """diag(1, e^{i phi}) for a real angle phi inside the double range."""
    try:
        angle = float(phi) if isinstance(phi, (int, float, np.integer, np.floating)) else np.nan
    except OverflowError:  # a Python int beyond the double range, perhaps too long to print
        bits = phi.bit_length()
        raise ValueError(f"phase angle must be a finite real number, got an int of {bits} bits") from None
    if not np.isfinite(angle):
        raise ValueError(f"phase angle must be a finite real number, got {phi!r}")
    return np.array([[1, 0], [0, np.exp(1j * angle)]], dtype=np.complex128)


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
    R, the one parameterized name, takes the angle `phi`; no other name does.
    """
    if name == "R":
        if phi is None:
            raise ValueError("R requires an angle argument")
        return phase_gate(phi)
    if name not in NAMED_GATES:
        raise ValueError(f"unknown gate name {name!r}")
    if phi is not None:
        raise ValueError(f"only R takes an angle, got {phi!r} for {name}")
    return NAMED_GATES[name](enc)
