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

# Eigenphases within this distance of -pi are treated as lying on the branch
# point and mapped to +pi, so the square root of eigenvalue -1 is +i.
_BRANCH_SNAP = 1e-12

# Hermitian-part eigenvalues closer than this are diagonalized jointly with the
# skew part; see _eig_unitary.
_CLUSTER_GAP = 1e-6


class ConvergenceError(RuntimeError):
    """An iterative routine failed to converge within its iteration cap.

    For the Jacobi SVD, `sweeps` is the number of sweeps used and
    `off_diagonal` the largest remaining column-pair ratio
    |w_i^dagger w_j| / (||w_i|| ||w_j||).
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
    if not np.isfinite(out).all():
        raise ValueError(f"{noun} contains NaN or Inf entries")
    return out


def _check_tol(tol) -> None:
    """The one tolerance rule: ValueError for a NaN or negative tol."""
    if not tol >= 0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")


def _count(value, what: str) -> int:
    """value as a Python int (operator.index), or ValueError naming `what`:
    counts such as subsystem numbers and dimensions are integers, not floats."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _prescale(x: np.ndarray, extreme_only: bool = False) -> tuple[np.ndarray, int]:
    """(x * 2**-e, e) for a float64 or complex128 array, with e chosen so
    that the largest real or imaginary part of the result lies in [0.5, 1);
    (x, 0) for the zero array.  Scaling by a power of two is exact, and no
    square or product of scaled entries overflows.  With extreme_only, an x
    with |e| <= _GRAM_EXP, whose squares need no scaling, is returned as is."""
    f = np.ascontiguousarray(x).view(np.float64)
    _, e = math.frexp(float(np.max(np.abs(f), initial=0.0)))
    if extreme_only and abs(e) <= _GRAM_EXP:
        return x, 0
    return np.ldexp(f, -e).view(x.dtype), e


def _ldexp(x: float, e: int) -> float:
    """x * 2**e, inf beyond the double range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def _norm(x: np.ndarray) -> float:
    """2-norm that no square overflows or underflows: scale by the largest
    entry, take the norm, scale back.  0.0 for the zero array, inf for a norm
    beyond the double range."""
    y, e = _prescale(x)
    return _ldexp(float(np.linalg.norm(y)), e)


def _unitarity_residual(a: np.ndarray) -> float:
    """||a^dagger a - I||_F for a square matrix, inf beyond the double range.

    A largest entry of 2**e with e above _GRAM_EXP is scaled by 2**-k, k =
    e - _GRAM_EXP, first: then a^dagger a - I = 4**k (b^dagger b - 4**-k I)
    for b = 2**-k a, and no product or square overflows.  Underflow in the
    Gram matrix does no harm, as it is subtracted from I."""
    _, e = math.frexp(float(np.abs(a).max()))
    k = max(e - _GRAM_EXP, 0)
    b = a * math.ldexp(1.0, -k) if k else a
    gram = b.conj().T @ b
    gram.reshape(-1)[:: len(b) + 1] -= math.ldexp(1.0, -2 * k)
    return _ldexp(float(np.linalg.norm(gram)), 2 * k)


def _unit(x: np.ndarray) -> np.ndarray:
    """x / ||x|| for a nonzero array, divided after prescaling so that no
    intermediate leaves the double range."""
    y, _ = _prescale(x)
    return y / np.linalg.norm(y)


def kron(a, b) -> np.ndarray:
    """Kronecker product with the first factor most significant.

    Entry ((i1,i2),(j1,j2)) of the result is a[i1,j1]*b[i2,j2] under row-major
    flattening of the paired indices.  Accepts two vectors (returning a vector)
    or two matrices (returning a matrix).  Raises ValueError if an entry of
    the product exceeds the double range.
    """
    aa = np.asarray(a, dtype=np.complex128)
    bb = np.asarray(b, dtype=np.complex128)
    if aa.ndim not in (1, 2) or bb.ndim not in (1, 2):
        raise ValueError("kron expects vectors or matrices")
    if not (np.isfinite(aa).all() and np.isfinite(bb).all()):
        raise ValueError("kron operand contains NaN or Inf entries")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return np.kron(aa, bb)
    except FloatingPointError:
        raise ValueError("kron product exceeds the double range") from None


def kron_apply(mats, x) -> np.ndarray:
    """kron(mats[0], mats[1], ...) @ x without forming the Kronecker product.

    x is a vector or a matrix whose row count is the product of the factors'
    column counts.  Each factor in turn contracts the leading index of x and
    the result index moves to the back, so after the last factor the indices
    are back in order.  The cost is one small matmul per factor over len(x)
    entries instead of a product-sized matrix.  If a partial product
    overflows or underflows, as with factors at opposite extreme scales, the
    product is taken again with each factor and x scaled by a power of two
    near its largest entry and the result scaled back.  Raises ValueError for
    NaN or Inf entries and if an entry of the result exceeds the double range.
    """
    try:
        with np.errstate(over="raise", under="raise", invalid="raise"):
            y = _kron_apply(mats, x)
        if np.isfinite(y).all():
            return y
    except FloatingPointError:
        pass
    parts = [_prescale(np.asarray(a, np.complex128 if np.iscomplexobj(a) else np.float64)) for a in (*mats, x)]
    if not all(np.isfinite(a).all() for a, _ in parts):
        raise ValueError("kron_apply operand contains NaN or Inf entries")
    y, e = _prescale(_kron_apply([a for a, _ in parts[:-1]], parts[-1][0]))
    e += sum(k for _, k in parts)
    if e > np.finfo(np.float64).maxexp:
        raise ValueError("kron_apply result exceeds the double range")
    return np.ldexp(y.view(np.float64), e).view(y.dtype)


def _kron_apply(mats, x) -> np.ndarray:
    """kron_apply without the scaling and the range check they cost on every
    call.  For callers whose partial products stay far inside the
    double range: unit-scale frame factors on a normalized or prescaled
    operand."""
    x = np.asarray(x)
    cols = [m.shape[1] for m in mats]
    if x.ndim not in (1, 2) or x.shape[0] != math.prod(cols):
        raise ValueError(f"operand of shape {x.shape} does not match the factors' column counts {cols}")
    rest = x.shape[1:]
    for m, c in zip(mats, cols):
        x = x.reshape(c, -1).T.dot(m.T)
    return x.reshape(*rest, -1).T


@functools.lru_cache(maxsize=64)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Round-robin (Brent-Luk parallel) ordering of the column pairs of an
    n-column matrix: n-1 rounds, for n rounded up to even, each a set of
    disjoint pairs (i, j) with i < j, covering every pair once per sweep.

    Column 0 stays in place and the others move one seat per round (the
    circle method).  For odd n, column n is a phantom whose pairs are dropped.
    """
    size = n + n % 2
    ring = list(range(size))
    rounds = []
    for _ in range(size - 1):
        pairs = [(min(a, b), max(a, b)) for a, b in zip(ring[: size // 2], ring[::-1])]
        i, j = np.array([p for p in pairs if p[1] < n], dtype=np.intp).reshape(-1, 2).T
        i.setflags(write=False)
        j.setflags(write=False)
        rounds.append((i, j))
        ring = ring[:1] + ring[-1:] + ring[1:-1]
    return tuple(rounds)


def _off_diagonal(w: np.ndarray) -> float:
    """Largest |w_i^dagger w_j| / (||w_i|| ||w_j||) over pairs of nonzero
    columns: the figure the Jacobi skip test holds to _JACOBI_TOL."""
    gram = np.abs(w.conj().T @ w)
    d = np.sqrt(np.diag(gram))
    live = d > 0.0
    ratio = gram[np.ix_(live, live)] / np.outer(d[live], d[live])
    np.fill_diagonal(ratio, 0.0)
    return float(ratio.max(initial=0.0))


def _jacobi_orthogonalize(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-sided (Hestenes) Jacobi in round-robin order: each round rotates
    its disjoint column pairs of `w` at once, until a whole sweep finds every
    pair orthogonal.  Returns the rotated w and the accumulated right factor v,
    with w_in = w v^dagger."""
    m, n = w.shape
    # Row k is column k of w followed by column k of v, so one gather and one
    # scatter per side of a round move both; wf is a real view of the w part.
    x = np.concatenate([w.T, np.eye(n, dtype=np.complex128)], axis=1)
    wf = x.view(np.float64)[:, : 2 * m]
    rounds = _round_robin(n)
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for i, j in rounds:
            sq = np.einsum("kl,kl->k", wf, wf)
            negligible = sq < _JACOBI_FLOOR
            if negligible.any():
                wf[negligible] = 0.0
            xi, xj = x[i], x[j]
            alpha, beta = sq[i], sq[j]
            gamma = np.einsum("kl,kl->k", xi[:, :m].conj(), xj[:, :m])
            g = np.abs(gamma)
            live = g > _JACOBI_TOL * (np.sqrt(alpha) * np.sqrt(beta))
            if not live.any():
                continue
            rotated = True
            if not live.all():
                i, j, xi, xj = i[live], j[live], xi[live], xj[live]
                alpha, beta, gamma, g = alpha[live], beta[live], gamma[live], g[live]
            tau = (alpha - beta) / (2.0 * g)
            t = np.where(tau >= 0.0, -1.0, 1.0) / (np.abs(tau) + np.hypot(tau, 1.0))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            phase = (gamma / g).conj()
            x[i] = c[:, None] * xi - (s * phase)[:, None] * xj
            x[j] = s[:, None] * xi + (c * phase)[:, None] * xj
        if not rotated:
            return x[:, :m].T, x[:, m:].T
    off = _off_diagonal(x[:, :m].T)
    raise ConvergenceError(
        f"Jacobi SVD did not converge within {_JACOBI_MAX_SWEEPS} sweeps: largest "
        f"column-pair ratio {off:.3e} above the tolerance {_JACOBI_TOL:.0e}",
        sweeps=_JACOBI_MAX_SWEEPS,
        off_diagonal=off,
    )


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition by one-sided Jacobi rotations.

    Returns (u, s, v) with orthonormal columns in u and v, s sorted descending,
    and m = u @ diag(s) @ v.conj().T.  Economy-sized: s has min(rows, cols)
    entries.  The input is scaled by a power of two near its largest entry
    first and s scaled back, so no square in the sweeps overflows or
    underflows; singular values below about 1.5e-147 times the largest entry
    come back as 0 (see _JACOBI_FLOOR).  The singular vectors of the zero
    values on the rotated side are the trailing columns of the reduced
    Householder QR (np.linalg.qr) of those of the nonzero values padded with
    zero columns, so that factor is orthonormal at any rank and the QR works
    in the input's own rows x cols.  Raises ValueError if the largest
    singular value exceeds the double range and ConvergenceError if the sweep
    cap is exceeded.
    """
    a = as_array(m, 2)
    rows, cols = a.shape
    transposed = rows < cols
    w, e = _prescale(a.conj().T if transposed else a)
    w, r = _jacobi_orthogonalize(w)

    norms = np.linalg.norm(w, axis=0)
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    w = w[:, order]
    r = r[:, order]
    if math.frexp(norms[0])[1] + e > np.finfo(np.float64).maxexp:
        raise ValueError("the largest singular value exceeds the double range")

    rank = np.count_nonzero(norms)
    uw = w[:, :rank] / norms[:rank]
    if rank < len(norms):
        padded = np.hstack([uw, np.zeros((len(uw), len(norms) - rank))])
        uw = np.hstack([uw, np.linalg.qr(padded)[0][:, rank:]])

    sigma = np.ldexp(norms, e)
    if transposed:
        return r, sigma, uw
    return uw, sigma, r


def _eig_unitary(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a unitary via its commuting Hermitian parts.

    eigh of (u+u†)/2 fixes the eigenspaces up to cos-degeneracy; clusters of
    nearly equal cosines are split by diagonalizing the compressed skew part,
    which separates eigenphase pairs of the form ±theta.
    """
    herm = (u + u.conj().T) / 2.0
    skew = (u - u.conj().T) / 2.0j
    cos_vals, q = np.linalg.eigh(herm)

    start = 0
    n = len(cos_vals)
    for end in range(1, n + 1):
        if end < n and cos_vals[end] - cos_vals[end - 1] <= _CLUSTER_GAP:
            continue
        if end - start > 1:
            block = q[:, start:end]
            sub = block.conj().T @ skew @ block
            sub = (sub + sub.conj().T) / 2.0
            _, rot = np.linalg.eigh(sub)
            q[:, start:end] = block @ rot
        start = end

    lam = np.einsum("ij,ij->j", q.conj(), u @ q)
    return lam / np.abs(lam), q


def principal_unitary_sqrt(u, tol: float = 1e-9) -> np.ndarray:
    """Principal square root of a unitary matrix.

    Each eigenvalue e^{i theta} with theta in (-pi, pi] is mapped to
    e^{i theta/2}; in particular -1 maps to +i.  The result is unitary and
    squares back to the input.  Raises ValueError if the input is not unitary
    to within `tol`, or for a NaN or negative tol.
    """
    _check_tol(tol)
    a = as_array(u, 2)
    if a.shape[0] != a.shape[1]:
        raise ValueError("principal_unitary_sqrt requires a square matrix")
    if not is_unitary(a, tol):
        raise ValueError("principal_unitary_sqrt requires a unitary matrix")
    lam, q = _eig_unitary(a)
    theta = np.arctan2(lam.imag, lam.real)
    theta[theta <= -np.pi + _BRANCH_SNAP] = np.pi
    half = np.exp(0.5j * theta)
    return (q * half) @ q.conj().T


def res(m) -> np.ndarray:
    """Row-major flattening of a matrix into a vector."""
    return as_array(m, 2).reshape(-1)


def unres(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of res: reshape a vector of length rows*cols into a matrix."""
    a = as_array(v, 1)
    if a.size != rows * cols:
        raise ValueError(f"cannot reshape a vector of length {a.size} to {rows}x{cols}")
    return a.reshape(rows, cols)


def tensor_apply(t, x) -> np.ndarray:
    """Act with a gate tensor on a matrix-encoded state.

    Computes y_k = trace(slice_k @ x) for each slice and reshapes y back into
    the shape of x, so the slices of a rows x cols state are cols x rows.
    Equivalent to unres(G @ res(x)) for G = tensor_to_matrix(t).
    """
    tt = as_array(t, 3)
    xm = as_array(x, 2)
    if tt.shape[:2] != xm.shape[::-1]:
        raise ValueError(f"tensor slices {tt.shape[:2]} do not act on a state of shape {xm.shape}")
    if tt.shape[2] != xm.size:
        raise ValueError(f"expected {xm.size} slices, got {tt.shape[2]}")
    y = np.einsum("ijk,ji->k", tt, xm)
    if not np.isfinite(y).all():
        raise ValueError("tensor_apply result exceeds the double range")
    return unres(y, xm.shape[0], xm.shape[1])


def tensor_to_matrix(t) -> np.ndarray:
    """Matrix form of a gate tensor: row k is res(slice_k.T)."""
    tt = as_array(t, 3)
    rows, cols, k = tt.shape
    return tt.transpose(2, 1, 0).reshape(k, rows * cols).copy()


def matrix_to_tensor(g, rows: int, cols: int) -> np.ndarray:
    """Gate tensor, of shape (cols, rows, len(g)), whose trace action on a
    rows x cols state x reproduces y = g @ res(x)."""
    gm = as_array(g, 2)
    if gm.shape[1] != rows * cols:
        raise ValueError(f"matrix with {gm.shape[1]} columns cannot act on {rows}x{cols} states")
    return gm.reshape(gm.shape[0], rows, cols).transpose(2, 1, 0).copy()


def equal_up_to_phase(a, b, tol: float) -> complex | None:
    """Return the phase e^{i phi} with ||a - e^{i phi} b|| <= tol*||b||, if any.

    The candidate phase is read off the largest-modulus entry of b (first one
    in row-major order on ties); None if no unimodular phase works.  a and b
    are scaled by one power of two first and the norms are scale-safe, so the
    answer holds across the whole double range.  Raises ValueError for a NaN
    or negative tol.
    """
    _check_tol(tol)
    am = as_array(a, 2)
    bm = as_array(b, 2)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    (am, bm), _ = _prescale(np.stack([am, bm]))
    flat_b = bm.reshape(-1)
    k = int(np.argmax(np.abs(flat_b)))
    a_k, b_k = complex(am.reshape(-1)[k]), complex(flat_b[k])
    b_norm = _norm(bm)
    if b_k == 0.0:
        return 1.0 + 0.0j if _norm(am) <= tol * b_norm else None
    if a_k == 0.0:
        return None
    phase = a_k / abs(a_k) * (b_k / abs(b_k)).conjugate()
    if _norm(am - phase * bm) <= tol * b_norm:
        return phase
    return None


def is_unitary(m, tol: float) -> bool:
    """True iff ||m† m - I||_F <= tol, at any scale.  Raises ValueError for
    non-square input and for a NaN or negative tol."""
    _check_tol(tol)
    a = as_array(m, 2)
    if a.shape[0] != a.shape[1]:
        raise ValueError("is_unitary requires a square matrix")
    return bool(_unitarity_residual(a) <= tol)
