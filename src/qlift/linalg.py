"""Dense complex linear algebra underpinning the encoding/synthesis layers.

Conventions used throughout the package:

* vectors are 1-D ``complex128`` arrays, matrices 2-D, gate tensors 3-D with
  the slice index last (shape ``(rows, cols, slices)``, acting on
  ``cols x rows`` states);
* ``res`` flattens a matrix row-major into a column vector, ``unres`` inverts it;
* Kronecker products put the first factor in the most significant position;
* the principal square root of a unitary halves each eigenphase taken in
  ``(-pi, pi]``, so eigenvalue -1 maps to +i.
"""

from __future__ import annotations

import functools
import math
import operator
import weakref

import numpy as np

__all__ = [
    "ConvergenceError",
    "as_array",
    "kron",
    "kron_apply",
    "svd",
    "principal_unitary_sqrt",
    "res",
    "unres",
    "tensor_apply",
    "tensor_to_matrix",
    "matrix_to_tensor",
    "equal_up_to_phase",
    "is_unitary",
]

# Relative column-orthogonality threshold for the Jacobi sweeps and the cap on
# the number of sweeps before reporting non-convergence.
_JACOBI_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 100
# A column whose squared norm falls below this (a norm of about 1.5e-147 once
# the input's largest entry is 1) is set to zero: paired with it, the products
# in a rotation could leave the normal double range, and rotations only shrink
# the smaller column of a pair, so it never grows back.
_JACOBI_FLOOR = np.finfo(np.float64).tiny / _JACOBI_TOL

# Entries below 2**_GRAM_EXP keep the Gram matrix a^dagger a and the squares
# of its entries inside the double range; see _unitarity_residual.
_GRAM_EXP = 200
# Columns per strip of the Gram matrix in _unitarity_residual: at dimension
# 1024 a strip takes at most 1 MiB where the whole Gram matrix takes 16.
_GRAM_STRIP = 64
# Entries per strip of _lone_entries' pass: 512 KiB of a complex matrix.
_STRIP = 2**15

# The one gate tolerance: a matrix is unitary enough to be a gate (in
# synthesis, circuits, roots and enumeration) when ||m^dagger m - I||_F <= it.
_GATE_TOL = 1e-9

_FRAMED: dict[int, tuple] = {}  # see _framed_permutation

# Eigenphases within this distance of -pi are treated as lying on the branch
# point and mapped to +pi, so the square root of eigenvalue -1 is +i.
_BRANCH_SNAP = 1e-12


class ConvergenceError(RuntimeError):
    """An iterative routine failed to converge within its iteration cap.

    For the Jacobi SVD, `sweeps` is the number of sweeps used and
    `off_diagonal` the largest remaining column cosine
    |w_i^dagger w_j| / (||w_i|| ||w_j||) of the rotated R^dagger v0, the
    warm-started matrix (see svd), which exceeds _JACOBI_TOL.  It is the
    figure of the Gram test that ends the sweeps, so a cap reached with
    every pair within it is no failure.
    """

    def __init__(self, message: str, sweeps: int | None = None, off_diagonal: float | None = None):
        super().__init__(message)
        self.sweeps = sweeps
        self.off_diagonal = off_diagonal


# ndim -> (expected shape, noun) as worded in coercion errors.
_ARRAY_KINDS = {
    1: ("a vector", "vector"),
    2: ("a matrix", "matrix"),
    3: ("a (rows, cols, slices) tensor", "tensor"),
}


def as_array(a, ndim: int) -> np.ndarray:
    """Coerce to a finite complex vector (ndim 1), matrix (2) or gate tensor
    of shape (rows, cols, slices) (3); rejects empty input and NaN/Inf entries.

    A single-row or single-column matrix is accepted as a vector.
    """
    out = np.asarray(a, dtype=np.complex128)
    if ndim == 1 and out.ndim == 2 and 1 in out.shape:
        out = out.reshape(-1)
    expected, noun = _ARRAY_KINDS[ndim]
    if out.ndim != ndim:
        raise ValueError(f"expected {expected}, got shape {np.shape(a)}")
    if out.size == 0:
        raise ValueError(f"empty {noun}")
    # A complex entry is finite when both its parts are, so a C-ordered
    # array is checked as its float64 view.
    if not np.isfinite(out.view(np.float64) if out.flags.c_contiguous else out).all():
        raise ValueError(f"{noun} contains NaN or Inf entries")
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    """a itself when it is read-only and either owns its memory, so that no
    view can write to it and only a holder of a could make it writeable
    again, or lies over immutable bytes (_framed_permutation), which nothing
    can make writeable; otherwise a read-only copy of a."""
    # A view's base is the array over the bytes, whose own base they are.
    if a.flags.writeable or not (a.flags.owndata or isinstance(getattr(a.base, "base", a.base), bytes)):
        a = a.copy()
        a.setflags(write=False)
    return a


def _check_tol(tol):
    """The one tolerance rule: tol, or ValueError for a NaN or negative tol."""
    if not tol >= 0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    return tol


def _square(u, what: str) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The one square-matrix rule: (as_array(u, 2), its _lone_entries) in one
    pass, or as_array's ValueError, then one naming `what` and the shape if
    not square; the array _framed_permutation built has its split recorded."""
    a = np.asarray(u, dtype=np.complex128)
    ref, _, _, split, _ = _FRAMED.get(id(a), (None,) * 5)
    if ref is None or ref() is not a:
        if a.ndim != 2 or a.size == 0:
            as_array(u, 2)  # raises its rank or empty error
        split = _lone_entries(a)
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"{what}: shape {a.shape} is not square")
    return a, split


def _unitary(a: np.ndarray, split: tuple[np.ndarray, np.ndarray], tol: float, what: str) -> None:
    """The one gate rule: ValueError naming `what`, the residual and tol
    unless the unitarity residual of the square matrix a with its _square
    split (_unitarity_residual) is within tol; returns nothing."""
    r = _unitarity_residual(a, split)
    if not r <= tol:
        raise ValueError(f"{what} (residual {r:.3e}, tol {tol:.3e})")


def _count(value, what: str) -> int:
    """value as a Python int (operator.index), or ValueError naming `what`:
    counts such as subsystem numbers and dimensions are integers, not floats."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _dims(a, b, what: str) -> tuple[int, int]:
    """(a, b) through _count, or ValueError unless both are positive."""
    a, b = _count(a, what), _count(b, what)
    if a < 1 or b < 1:
        raise ValueError(f"{what}s must be positive, got {a} x {b}")
    return a, b


def _prescale(x: np.ndarray, extreme_only: bool = False) -> tuple[np.ndarray, int]:
    """(x * 2**-e, e) for a float64 or complex128 array, with e chosen so
    that the largest real or imaginary part of the result lies in [0.5, 1);
    (x, 0) for the zero array.  Scaling by a power of two is exact, and no
    square or product of scaled entries overflows.  With extreme_only, an x
    with |e| <= _GRAM_EXP, whose squares need no scaling, is returned as is."""
    f = np.ascontiguousarray(x).view(np.float64)
    _, e = math.frexp(float(max(f.max(initial=0.0), -f.min(initial=0.0))))
    if extreme_only and abs(e) <= _GRAM_EXP:
        return x, 0
    return np.ldexp(f, -e).view(x.dtype), e


def _ldexp(x: float, e: int) -> float:
    """x * 2**e, inf beyond the double range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def _scale_back(y: np.ndarray, e: int, what: str) -> np.ndarray:
    """y * 2**e for a float64 or complex128 array, each part rounded once,
    or ValueError naming `what` if a part lies beyond the double range."""
    f = np.ascontiguousarray(y).view(np.float64)
    if math.frexp(float(max(f.max(initial=0.0), -f.min(initial=0.0))))[1] + e > np.finfo(np.float64).maxexp:
        raise ValueError(f"{what} exceeds the double range")
    return np.ldexp(f, e).view(y.dtype)


def _in_range(compute, operands, what: str) -> np.ndarray:
    """The one range rule of kron, kron_apply, tensor_apply and the circuit
    fold: compute(*operands), or, if numpy flags an overflow, underflow or
    invalid operation in it, compute on each operand scaled by a power of two
    near its largest part (_prescale) and scale back (_scale_back, naming
    `what`).  compute must be built from operations that report the flags:
    ufuncs, matmul and dot do, einsum does not.  The result is accurate
    normwise: each entry's error is a few units of roundoff, times the terms
    summed per entry, of the product M of the operands' largest entries, or
    a few subnormal spacings 2**-1074 where M is smaller, so an entry far
    below M can come back as 0 from a redo.  The redo runs under numpy's
    default flags whatever the caller's, which the errstate block restores."""
    with np.errstate(over="raise", under="raise", invalid="raise"):
        try:
            return compute(*operands)
        except FloatingPointError:
            np.seterr(divide="warn", over="warn", under="ignore", invalid="warn")
            parts = [_prescale(a) for a in operands]
            return _scale_back(compute(*(a for a, _ in parts)), sum(e for _, e in parts), what)


def _norm(x: np.ndarray) -> float:
    """2-norm that no square overflows or underflows: scale by the largest
    entry, take the norm, scale back.  0.0 for the zero array, inf for a norm
    beyond the double range."""
    y, e = _prescale(x)
    return _ldexp(float(np.linalg.norm(y)), e)


def _unitarity_residual(a: np.ndarray, split: tuple[np.ndarray, np.ndarray]) -> float:
    """||a^dagger a - I||_F for a square matrix, inf beyond the double range;
    the figure recorded for the very array _framed_permutation built under
    frames.  split is a's _square split.

    A column is lone when it holds a lone entry a_ij (_lone_entries).  It
    meets no other column in a^dagger a and adds (|a_ij|^2 - 1)^2 to the
    squared residual, which is exactly 0 for an entry 1: a permutation
    matrix, whose columns are all lone, reads 0.0.  The Gram matrix is
    formed only over the other columns, b: a itself when no column is lone,
    else a copy of those columns, with no rows dropped, since b is zero on
    the rows of lone entries.  Of that Gram matrix only the upper block
    triangle is formed, _GRAM_STRIP columns of b at a time against those
    from the strip on: the strip's diagonal block counts once and the block
    beyond it twice.  Norms are combined with math.hypot, as their squares
    could overflow.

    A largest entry of 2**e with e above _GRAM_EXP is scaled by 2**-k, k =
    e - _GRAM_EXP, first: then a^dagger a - I = 4**k (c^dagger c - 4**-k I)
    for c = 2**-k a, and no product or square overflows.  Underflow does no
    harm, as it is subtracted from I.  The largest entry of b is searched
    one strip at a time, so that the search makes no temporary the size of
    a.  An entry of modulus 2**513 or more, which may itself read inf, puts
    a diagonal entry of a^dagger a - I beyond the double range, so the
    residual is inf and no product is formed."""
    ref, _, _, _, recorded = _FRAMED.get(id(a), (None,) * 5)
    if ref is not None and ref() is a:
        return recorded
    rows, lone = split
    single = abs(a[rows, lone])
    # b holds the cols columns that are not lone: all of a, none of it, or
    # a copy of the rest.
    cols = len(a) - len(single)
    b = a[:, :cols]
    if len(single) and cols:
        rest = np.ones(len(a), dtype=bool)
        rest[lone] = False
        b = a[:, rest]
    top = single.max(initial=0.0)
    for j in range(0, cols, _GRAM_STRIP):
        top = max(top, abs(b[:, j : j + _GRAM_STRIP]).max())
    if top >= 2.0**513:
        return math.inf
    k = max(math.frexp(top)[1] - _GRAM_EXP, 0)
    if k:
        single *= math.ldexp(1.0, -k)
        b = b * math.ldexp(1.0, -k)
    one = math.ldexp(1.0, -2 * k)
    total = 0.0
    if len(single):
        single *= single
        single -= one
        # The squares are rounded one by one and summed with one rounding,
        # so that no BLAS dot's order or fused multiply-add shows in the
        # last bit.
        single *= single
        total = math.sqrt(math.fsum(single.tolist()))
    for j in range(0, cols, _GRAM_STRIP):
        # Row r holds Gram row j + r over the strip's w columns, conjugated:
        # the diagonal block is the first w rows and the block beyond it
        # the rest, both contiguous.
        gram = b[:, j:].T @ b[:, j : j + _GRAM_STRIP].conj()
        w = gram.shape[1]
        gram.reshape(-1)[: w * w : w + 1] -= one
        total = math.hypot(total, _frobenius(gram[:w]), math.sqrt(2.0) * _frobenius(gram[w:]))
    return _ldexp(total, 2 * k)


def _lone_entries(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the lone entries of a nonempty complex128 matrix, in
    row order: nonzero entries alone in both their row and their column.
    One pass checks for NaN and Inf and writes the mask a != 0
    (_nonzero_parts): a matrix of at most _STRIP entries in one piece, with
    no loop, and a larger one strip by strip, each of about _STRIP entries
    and written while it is in cache.  The row and column counts sum the
    mask's uint8 view in uint16, which holds max(shape) <= _STRIP, for one
    piece, and for strips in the narrowest type that holds max(shape)."""
    if a.size <= _STRIP:
        nz, count = _nonzero_parts(a) != 0, np.uint16
    else:
        nz, count = np.empty(a.shape, dtype=bool), np.min_scalar_type(max(a.shape))
        h = max(1, _STRIP // a.shape[1])
        for i in range(0, len(a), h):
            np.not_equal(_nonzero_parts(a[i : i + h]), 0, out=nz[i : i + h])
    # col[i] is row i's first nonzero column, lone when alone in both.
    col = nz.argmax(1)
    ones = nz.view(np.uint8)
    rows = (ones.sum(1, dtype=count) == 1).nonzero()[0]
    rows = rows[ones.sum(0, dtype=count)[col[rows]] == 1]
    return rows, col[rows]


def _nonzero_parts(a: np.ndarray) -> np.ndarray:
    """a's two part flags != 0 per entry, read as one uint16, or ValueError
    if a holds NaN or Inf."""
    f = np.ascontiguousarray(a).view(np.float64)
    if not np.isfinite(f).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return (f != 0.0).view(np.uint16)


def _frobenius(x: np.ndarray) -> float:
    """Frobenius norm of a complex array, unscaled."""
    return math.sqrt(np.vdot(x, x).real)


def _permutation(m: np.ndarray, split: tuple[np.ndarray, np.ndarray]) -> np.ndarray | None:
    """The one-line map p of a permutation matrix, m = eye(n)[:, p] (column
    j goes to row p[j]), or None unless the square matrix m is exactly one:
    a lone entry (_lone_entries) in every row, each exactly 1.  split is m's
    _square split."""
    rows, cols = split
    if len(rows) != len(m) or not (m[rows, cols] == 1).all():
        return None
    # Row i's one 1 sits in column cols[i], so p inverts cols.
    return cols.argsort()


def _framed_permutation(image: np.ndarray, frames) -> np.ndarray:
    """W P W^dagger, read-only, for P = eye[:, image] (column j goes to row
    image[j]) and frames W's factors and then their conjugates; P for no
    frames.  A product under frames lies over immutable bytes, so that no
    view of it can be made writeable, and is recorded: _FRAMED maps its id
    to (a weak reference to it, frames, image, its _square split and
    _unitarity_residual); the reference's callback drops it with the product."""
    dim = len(image)
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[image, np.arange(dim)] = 1.0
    if frames:
        # One contraction of the row-major flattened P, then one copy of
        # the product into bytes, which no numpy call can write.
        out = _kron_apply(frames, out.reshape(-1))
        out = np.frombuffer(out.tobytes(), np.complex128).reshape(dim, dim)
        key, split = id(out), _square(out, "framed permutation")[1]
        ref = weakref.ref(out, lambda _: _FRAMED.pop(key, None))
        _FRAMED[key] = (ref, frames, image, split, _unitarity_residual(out, split))
    out.setflags(write=False)
    return out


def _unit(x: np.ndarray) -> np.ndarray:
    """x / ||x|| for a nonzero array, divided after prescaling so that no
    intermediate leaves the double range."""
    y, _ = _prescale(x)
    return y / np.linalg.norm(y)


def kron(a, b) -> np.ndarray:
    """Kronecker product with the first factor most significant.

    Entry ((i1,i2),(j1,j2)) of the result is a[i1,j1]*b[i2,j2] under row-major
    flattening of the paired indices.  Accepts two vectors (returning a vector)
    or two matrices (returning a matrix).  Under the range rule (_in_range)
    each entry is within a few units of roundoff of the product M of the
    largest entries of a and b, and an entry far below M can underflow to 0:
    kron([5e-324, 1], [0.5, 1]) gives 0 for the representable 5e-324.
    Raises ValueError if an entry of the product exceeds the double range.
    """
    aa = np.asarray(a, dtype=np.complex128)
    bb = np.asarray(b, dtype=np.complex128)
    if aa.ndim not in (1, 2) or bb.ndim not in (1, 2):
        raise ValueError("kron expects vectors or matrices")
    if not (np.isfinite(aa).all() and np.isfinite(bb).all()):
        raise ValueError("kron operand contains NaN or Inf entries")
    return _in_range(np.kron, (aa, bb), "kron product")


def kron_apply(mats, x) -> np.ndarray:
    """kron(mats[0], mats[1], ...) @ x without forming the Kronecker product.

    x is a vector or a matrix whose row count is the product of the factors'
    column counts.  Each factor in turn contracts the leading index of x and
    the result index moves to the back, so after the last factor the indices
    are back in order.  The cost is one small matmul per factor over len(x)
    entries instead of a product-sized matrix.  Under the range rule
    (_in_range) even factors at opposite extreme scales give a result inside
    the range.  It is accurate normwise, not entrywise: each entry's error is
    a few units of roundoff, times the factors' column counts, of the product
    M of the largest entries of the factors and x, and an entry far below M
    can underflow to 0: kron_apply([diag(1e300, 1), diag(1e-300, 1)],
    ones(4) * 1e-10) gives 0 for the exact 1e-310.  Raises ValueError for
    NaN or Inf entries and if an entry of the result exceeds the double range.
    """
    if any(np.ndim(a) != 2 for a in mats):
        raise ValueError(f"kron_apply factors must be matrices, got shapes {[np.shape(a) for a in mats]}")
    operands = [np.asarray(a, np.complex128 if np.iscomplexobj(a) else np.float64) for a in (*mats, x)]
    if not all(np.isfinite(a).all() for a in operands):
        raise ValueError("kron_apply operand contains NaN or Inf entries")
    return _in_range(lambda *ops: _kron_apply(ops[:-1], ops[-1]), operands, "kron_apply result")


def _kron_apply(mats, x) -> np.ndarray:
    """kron_apply without the checks and the range rule.  For callers whose
    partial products stay far inside the double range: unit-scale frame
    factors on a normalized or prescaled operand."""
    x = np.asarray(x)
    cols = [m.shape[1] for m in mats]
    if x.ndim not in (1, 2) or x.shape[0] != math.prod(cols):
        raise ValueError(f"operand of shape {x.shape} does not match the factors' column counts {cols}")
    rest = x.shape[1:]
    for m, c in zip(mats, cols):
        x = x.reshape(c, -1).T.dot(m.T)
    return x.reshape(*rest, -1).T


def _off_diagonal(w: np.ndarray) -> float:
    """Largest |w_i^dagger w_j| / (||w_i|| ||w_j||) over pairs of nonzero
    columns, the figure the Jacobi skip test holds to _JACOBI_TOL: a column
    whose squared norm reads 0 has its norm read as inf, so its ratios are 0."""
    gram = np.abs(w.conj().T @ w)
    d = np.sqrt(np.diag(gram))
    d[d == 0.0] = np.inf
    ratio = gram / np.outer(d, d)
    np.fill_diagonal(ratio, 0.0)
    return float(ratio.max(initial=0.0))


@functools.lru_cache(maxsize=64)
def _round_pairs(n: int) -> tuple[np.ndarray, ...]:
    """Round-robin (Brent-Luk parallel) ordering of the column pairs of an
    n-column matrix: n-1 rounds, for n rounded up to even, each a read-only
    (p, 2) index of disjoint pairs (i, j) with i < j, covering every pair
    once per sweep.

    Column 0 stays in place and the others move one seat per round (the
    circle method).  For odd n, column n is a phantom whose pairs are
    dropped, and a round left with no pair (n = 1 has one) is dropped too.
    """
    size = n + n % 2
    ring = list(range(size))
    rounds = []
    for _ in range(size - 1):
        pairs = [(min(a, b), max(a, b)) for a, b in zip(ring[: size // 2], ring[::-1]) if max(a, b) < n]
        if pairs:
            rounds.append(_frozen(np.array(pairs, dtype=np.intp)))
        ring = ring[:1] + ring[-1:] + ring[1:-1]
    return tuple(rounds)


def _jacobi_orthogonalize(w: np.ndarray, v0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-sided (Hestenes) Jacobi in round-robin order from w v0, for a
    unitary v0 (I for the cold start), until every pair of columns is
    orthogonal.  Before each sweep one Gram product (_off_diagonal, the
    figure a ConvergenceError carries) tests every pair against _JACOBI_TOL
    and ends the loop without sweeping, unless a nonzero column lies below
    _JACOBI_FLOOR; a sweep that rotates no pair ends it too, should the Gram
    product and a round's vecdot round apart.  A round gathers its disjoint
    pairs (_round_pairs) once, takes their norms and inner products by two
    vecdot calls, zeroes those of its columns that lie below _JACOBI_FLOOR,
    and rotates all pairs by one batched 2x2 product, in which a pair
    already orthogonal gets the exact identity.  Every sweep gathers every
    column, so a column is zeroed before the next rotation it enters, and
    the loop ends with none below the floor.  Returns the rotated w and the
    accumulated right factor v, which starts at v0, with w_in = w v^dagger."""
    m, n = w.shape
    # Row k is column k of w followed by column k of v, so one gather and one
    # scatter per round move both.
    x = np.concatenate([(w @ v0).T, v0.T], axis=1)
    for _ in range(_JACOBI_MAX_SWEEPS):
        # One Gram product settles columns that no pair of a sweep would
        # rotate, unless a nonzero column below the floor is left to zero.
        d = np.vecdot(x[:, :m], x[:, :m]).real
        if not x[d < _JACOBI_FLOOR, :m].any() and _off_diagonal(x[:, :m].T) <= _JACOBI_TOL:
            break
        rotated = False
        for pairs in _round_pairs(n):
            xp = x[pairs]
            d = np.vecdot(xp[:, :, :m], xp[:, :, :m]).real
            if d.min() < _JACOBI_FLOOR:
                small = d < _JACOBI_FLOOR
                x[pairs[small], :m] = xp[small, :m] = d[small] = 0.0
            alpha, beta = d.T
            gamma = np.vecdot(xp[:, 0, :m], xp[:, 1, :m])
            g = np.abs(gamma)
            live = g > _JACOBI_TOL * (np.sqrt(alpha) * np.sqrt(beta))
            if not live.any():
                continue
            rotated = True
            # t = -sign(tau) / (|tau| + hypot(tau, 1)), tau = (alpha - beta) / 2g, with 2g
            # multiplied through, is 0 for a pair that is not live; the rotation's phase
            # phi = conj(gamma) / g sits off the diagonal, so t = 0 gives the identity.
            diff, g2 = alpha - beta, np.where(live, 2.0 * g, 0.0)
            t = np.copysign(g2, -diff) / np.where(live, np.abs(diff) + np.hypot(diff, g2), 1.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            sphase = c * t * (gamma.conj() / np.maximum(g, np.finfo(np.float64).tiny))
            rot = np.empty((len(pairs), 2, 2), dtype=np.complex128)
            rot[:, 0, 0] = rot[:, 1, 1] = c
            rot[:, 0, 1] = -sphase
            rot[:, 1, 0] = sphase.conj()
            x[pairs] = rot @ xp
        if not rotated:
            break
    else:
        off = _off_diagonal(x[:, :m].T)
        if off > _JACOBI_TOL:
            raise ConvergenceError(
                f"Jacobi SVD did not converge within {_JACOBI_MAX_SWEEPS} sweeps: largest "
                f"column cosine {off:.3e} above the tolerance {_JACOBI_TOL:.0e}",
                sweeps=_JACOBI_MAX_SWEEPS,
                off_diagonal=off,
            )
    return x[:, :m].T, x[:, m:].T


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition by one-sided Jacobi rotations on the
    triangular factor of a sorted Householder QR.

    Returns (u, s, v) with orthonormal columns in u and v, s sorted descending,
    and m = u @ diag(s) @ v.conj().T.  Economy-sized: s has min(rows, cols)
    entries.  The input (conjugate-transposed if it has fewer rows than
    columns, so that it is tall) is scaled by a power of two near its largest
    entry first and s scaled back, so no square in the sweeps overflows or
    underflows; singular values below about 1.5e-147 times the largest entry
    come back as 0 (see _JACOBI_FLOOR).  Its rows are sorted by decreasing
    norm, which keeps the QR backward stable row by row on row-graded input,
    and its columns by decreasing norm, which stands in for column pivoting
    (numpy has no pivoted QR) and cuts the sweeps (Drmac and Veselic, 2008).
    The Jacobi sweeps then orthogonalize the columns of the square R^dagger
    of the reduced QR = Q R, started from R^dagger v0 with v0 LAPACK's left
    factor of R (I if LAPACK fails): one more unitary factor on the right,
    which keeps the row-wise accuracy of one-sided Jacobi, so LAPACK only
    picks where the sweeps start and they decide every value.  Up to 25
    columns LAPACK takes that factor by QR iteration, accurate relative to
    each singular value (Demmel and Kahan, 1990), and R^dagger v0 of most
    inputs, rank-deficient ones too, passes the Gram test before any sweep;
    square inputs of deficient rank above 25 columns still take 7 to 9
    sweeps.  The column norms of the rotated R^dagger are s, its unit
    columns the right factor and Q times the accumulated rotation the left
    factor, orthonormal at any rank, each with its sort undone.
    The right factor's vectors of the zero values are the trailing columns
    of the reduced QR of those of the nonzero values padded with zero
    columns, so that factor is orthonormal at any rank too and the
    completion works in min(rows, cols) squared.  Raises ValueError if the
    largest singular value exceeds the double range and ConvergenceError if
    the sweep cap is exceeded.
    """
    a = as_array(m, 2)
    rows, cols = a.shape
    transposed = rows < cols
    w, e = _prescale(a.conj().T if transposed else a)
    rp = np.argsort(-np.linalg.norm(w, axis=1), kind="stable")
    cp = np.argsort(-np.linalg.norm(w, axis=0), kind="stable")
    q, r = np.linalg.qr(w[rp][:, cp])
    rh = r.conj().T
    try:
        v0 = np.linalg.svd(r)[0]
    except np.linalg.LinAlgError:
        v0 = np.eye(len(rh), dtype=np.complex128)
    w, v = _jacobi_orthogonalize(rh, v0)

    norms = np.linalg.norm(w, axis=0)
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    w = w[:, order]
    v = v[:, order]
    sigma = _scale_back(norms, e, "the largest singular value")

    rank = np.count_nonzero(norms)
    uw = w[:, :rank] / norms[:rank]
    if rank < len(norms):
        padded = np.hstack([uw, np.zeros((len(uw), len(norms) - rank))])
        uw = np.hstack([uw, np.linalg.qr(padded)[0][:, rank:]])
    left, right = np.empty_like(q), np.empty_like(uw)
    left[rp] = q @ v
    right[cp] = uw

    if transposed:
        return right, sigma, left
    return left, sigma, right


@functools.lru_cache(maxsize=256)
def _cycle_root_column(length: int) -> np.ndarray:
    """Column 0 of the principal root of the cyclic shift e_i -> e_{i+1 mod
    length}, read-only; the root is the circulant r[(a - b) % length].

    The DFT diagonalizes every circulant.  The shift's eigenvalues are
    e^{i theta_k}, theta_k = 2 pi k / length for the k in (-length/2,
    length/2], so that theta_k lies in (-pi, pi], and r[m] is the mean over
    k of e^{i theta_k / 2} e^{-2 pi i k m / length} = e^{i k phi}, phi =
    pi (1 - 2m) / length, for any m of its class mod length.  That Dirichlet
    sum is (-1)^m e^{i c phi / 2} / sin(phi / 2), c = 1 for an even length
    and 0 for an odd one.  With m, too, taken in (-length/2, length/2],
    phi / 2 stays within 3 pi / 4 of 0, where the sine loses no accuracy,
    so each entry carries a few units of roundoff.  The 2-cycle root is
    exactly (1 +- i)/2."""
    if length == 2:
        r = np.array([1 + 1j, 1 - 1j]) / 2
    else:
        m = np.arange(length)
        m[2 * m > length] -= length
        half = np.pi * (1 - 2 * m) / (2 * length)
        r = (-1.0) ** m * np.exp(1j * (1 - length % 2) * half) / (length * np.sin(half))
    r.setflags(write=False)
    return r


def _permutation_sqrt(p: np.ndarray) -> np.ndarray:
    """Principal square root of the permutation matrix eye(n)[:, p], cycle
    by cycle (_cycle_root_column): fixed points' blocks, exactly 1, in one
    write, each other cycle walked over p's list from its least element,
    below its image, and each length's blocks scattered as one strided view."""
    n = len(p)
    out = np.zeros((n, n), dtype=np.complex128)
    i = np.arange(n)
    out.reshape(-1)[:: n + 1] = p == i
    step, seen, orbits = p.tolist(), set(), {}
    for start in (p > i).nonzero()[0].tolist():
        if start not in seen:
            cycle, j = [start], step[start]
            while j != start:
                cycle.append(j)
                j = step[j]
            seen.update(cycle)
            orbits.setdefault(len(cycle), []).append(cycle)
    for length, cycles in orbits.items():
        # Row k lists one cycle from its least element on: orbit[k, t] is
        # p applied t times to it.
        orbit = np.array(cycles)
        # Entry (a, b) of the block, r[(a - b) % length], read from r twice over.
        r = np.concatenate([_cycle_root_column(length)] * 2)
        block = np.ndarray((length, length), r.dtype, r, length * r.itemsize, (r.itemsize, -r.itemsize))
        out[orbit[:, :, None], orbit[:, None, :]] = block
    return out


def principal_unitary_sqrt(u, tol: float = _GATE_TOL) -> np.ndarray:
    """Principal square root of a unitary matrix.

    Each eigenvalue e^{i theta} with theta in (-pi, pi] is mapped to
    e^{i theta/2}; in particular -1 maps to +i.  The result is unitary and
    squares back to the input: to a few units of roundoff times the dimension
    for a unitary input, even at clustered or repeated eigenphases, and to
    about delta for an input off unitary by delta <= tol.  A permutation
    matrix (_permutation) takes its root cycle by cycle, with no
    eigensolver.  So does a gate that synthesis built under a rotated frame
    W, W P W^dagger, as W sqrt(P) W^dagger: that very array only, whose
    immutable bytes prove its bits (_framed_permutation), after the
    unitarity check.  Raises ValueError, with the residual, if the input is
    not unitary to within `tol`, or for a NaN or negative tol.
    """
    _check_tol(tol)
    a, split = _square(u, "principal_unitary_sqrt")
    p = _permutation(a, split)
    if p is not None:
        return _permutation_sqrt(p)
    _unitary(a, split, tol, "principal_unitary_sqrt requires a unitary matrix")
    # The root, a primary matrix function, commutes with similarity by W.
    ref, frames, image, _, _ = _FRAMED.get(id(a), (None,) * 5)
    if ref is not None and ref() is a:
        return _kron_apply(frames, _permutation_sqrt(image).reshape(-1)).reshape(a.shape)
    # The eigenphases up to sign are the arccosines of the Hermitian part's
    # eigenvalues.  Rotate u by e^{-i alpha} so that -1 sits mid-way along
    # the widest arc between the 2n points +-t: that arc is at least pi/n
    # wide, so ||(I + v)^-1|| <= 1 / (2 sin(pi/4n)) for v = e^{-i alpha} u.
    # eigvalsh sorts ascending, so t descends and the points below ascend
    # around the circle, ending with -t[0] + 2pi to close the last arc.
    t = np.arccos(np.clip(np.linalg.eigvalsh((a + a.conj().T) / 2.0), -1.0, 1.0))
    points = np.concatenate([-t, t[::-1], [2.0 * np.pi - t[0]]])
    k = int(np.argmax(np.diff(points)))
    alpha = (points[k] + points[k + 1]) / 2.0 + np.pi
    # The Cayley transform i(I - v)(I + v)^-1 = 2iM - iI, M = (I + v)^-1, has
    # eigenvalues tan(psi/2) for the eigenphases psi of v.  That map is
    # strictly increasing on (-pi, pi), so eigh of its Hermitian part
    # i(M - M^dagger) separates every distinct eigenphase.
    b = np.exp(-1j * alpha) * a
    b[np.diag_indices(len(b))] += 1.0
    m = np.linalg.inv(b)
    h = m - m.conj().T
    h *= 1j
    mu, q = np.linalg.eigh(h)
    theta = np.mod(alpha + 2.0 * np.arctan(mu) + np.pi, 2.0 * np.pi) - np.pi
    theta[theta <= -np.pi + _BRANCH_SNAP] = np.pi
    return (q * np.exp(0.5j * theta)) @ q.conj().T


def res(m) -> np.ndarray:
    """Row-major flattening of a matrix into a vector."""
    return as_array(m, 2).reshape(-1)


def unres(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of res: reshape a vector of length rows*cols into a matrix.
    Raises ValueError unless rows and cols are positive integers."""
    a = as_array(v, 1)
    rows, cols = _dims(rows, cols, "matrix dimension")
    if a.size != rows * cols:
        raise ValueError(f"cannot reshape a vector of length {a.size} to {rows}x{cols}")
    return a.reshape(rows, cols)


def tensor_apply(t, x) -> np.ndarray:
    """Act with a gate tensor on a matrix-encoded state.

    Computes y_k = trace(slice_k @ x) for each slice and reshapes y back into
    the shape of x, so the slices of a rows x cols state are cols x rows.
    That is unres(G @ res(x)) for G = tensor_to_matrix(t), computed as
    res(x^T) @ t.reshape(rows * cols, slices), a view of a C-ordered t, under
    the range rule (_in_range): each entry's error is a few units of roundoff,
    times the slice size, of the product of the largest entries of t and x.
    Raises ValueError if an entry of y exceeds the double range.
    """
    tt = as_array(t, 3)
    xm = as_array(x, 2)
    if tt.shape[:2] != xm.shape[::-1]:
        raise ValueError(f"tensor slices {tt.shape[:2]} do not act on a state of shape {xm.shape}")
    if tt.shape[2] != xm.size:
        raise ValueError(f"expected {xm.size} slices, got {tt.shape[2]}")
    y = _in_range(np.matmul, (xm.T.reshape(-1), tt.reshape(-1, tt.shape[2])), "tensor_apply result")
    return y.reshape(xm.shape)


def tensor_to_matrix(t) -> np.ndarray:
    """Matrix form of a gate tensor: row k is res(slice_k.T)."""
    tt = as_array(t, 3)
    rows, cols, k = tt.shape
    return tt.transpose(2, 1, 0).reshape(k, rows * cols).copy()


def matrix_to_tensor(g, rows: int, cols: int) -> np.ndarray:
    """Gate tensor, of shape (cols, rows, len(g)), whose trace action on a
    rows x cols state x reproduces y = g @ res(x).  Raises ValueError unless
    rows and cols are positive integers."""
    gm = as_array(g, 2)
    rows, cols = _dims(rows, cols, "matrix dimension")
    if gm.shape[1] != rows * cols:
        raise ValueError(f"matrix with {gm.shape[1]} columns cannot act on {rows}x{cols} states")
    return gm.reshape(gm.shape[0], rows, cols).transpose(2, 1, 0).copy()


def equal_up_to_phase(a, b, tol: float) -> complex | None:
    """Return the phase e^{i phi} with ||a - e^{i phi} b|| <= tol*||b||, if any.

    The phase tried is v/|v| for v = <b, a> (np.vdot), the unimodular phase
    that minimizes ||a - e^{i phi} b||, or 1 when v = 0; None if it fails,
    as then every phase does.  a and b are scaled by one power of two first
    and the norms are scale-safe, so the answer holds across the whole double
    range.  Raises ValueError for a NaN or negative tol.
    """
    _check_tol(tol)
    am = as_array(a, 2)
    bm = as_array(b, 2)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    (am, bm), _ = _prescale(np.stack([am, bm]))
    v = complex(np.vdot(bm, am))
    phase = v / abs(v) if v else 1.0 + 0.0j
    return phase if _norm(am - phase * bm) <= tol * _norm(bm) else None


def is_unitary(m, tol: float) -> bool:
    """True iff ||m† m - I||_F <= tol, at any scale, with the Gram matrix
    formed only among columns that are not lone (_unitarity_residual).
    Raises ValueError for non-square input and for a NaN or negative tol."""
    _check_tol(tol)
    return bool(_unitarity_residual(*_square(m, "is_unitary")) <= tol)
