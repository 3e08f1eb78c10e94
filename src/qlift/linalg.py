"""Dense complex linear algebra underpinning the encoding/synthesis layers.

Conventions used throughout the package:

* vectors are 1-D ``complex128`` arrays, matrices 2-D, gate tensors 3-D with
  the slice index last (shape ``(rows, cols, slices)``);
* ``res`` flattens a matrix row-major into a column vector, ``unres`` inverts it;
* Kronecker products put the first factor in the most significant position;
* the principal square root of a unitary halves each eigenphase taken in
  ``(-pi, pi]``, so eigenvalue -1 maps to +i.
"""

from __future__ import annotations

import math

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

# Eigenphases within this distance of -pi are treated as lying on the branch
# point and mapped to +pi, so the square root of eigenvalue -1 is +i.
_BRANCH_SNAP = 1e-12

# Hermitian-part eigenvalues closer than this are diagonalized jointly with the
# skew part; see _eig_unitary.
_CLUSTER_GAP = 1e-6


class ConvergenceError(RuntimeError):
    """An iterative routine failed to converge within its iteration cap."""


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


def kron(a, b) -> np.ndarray:
    """Kronecker product with the first factor most significant.

    Entry ((i1,i2),(j1,j2)) of the result is a[i1,j1]*b[i2,j2] under row-major
    flattening of the paired indices.  Accepts two vectors (returning a vector)
    or two matrices (returning a matrix).
    """
    aa = np.asarray(a, dtype=np.complex128)
    bb = np.asarray(b, dtype=np.complex128)
    if aa.ndim not in (1, 2) or bb.ndim not in (1, 2):
        raise ValueError("kron expects vectors or matrices")
    if not (np.isfinite(aa).all() and np.isfinite(bb).all()):
        raise ValueError("kron operand contains NaN or Inf entries")
    return np.kron(aa, bb)


def kron_apply(mats, x) -> np.ndarray:
    """kron(mats[0], mats[1], ...) @ x without forming the Kronecker product.

    x is a vector or a matrix whose row count is the product of the factors'
    column counts.  Each factor in turn contracts the leading index of x and
    the result index moves to the back, so after the last factor the indices
    are back in order.  The cost is one small matmul per factor over len(x)
    entries instead of a product-sized matrix.
    """
    x = np.asarray(x)
    cols = [m.shape[1] for m in mats]
    if x.ndim not in (1, 2) or x.shape[0] != math.prod(cols):
        raise ValueError(f"operand of shape {x.shape} does not match the factors' column counts {cols}")
    rest = x.shape[1:]
    for m, c in zip(mats, cols):
        x = x.reshape(c, -1).T.dot(m.T)
    return x.reshape(*rest, -1).T


def _complete_orthonormal(u: np.ndarray, dead: np.ndarray) -> None:
    """Replace the columns of `u` flagged in `dead` by unit vectors orthogonal
    to every other column.  Deterministic: candidates are scanned in standard
    basis order."""
    m = u.shape[0]
    for j in np.flatnonzero(dead):
        for i in range(m):
            cand = np.zeros(m, dtype=np.complex128)
            cand[i] = 1.0
            cand -= u @ (u.conj().T @ cand)
            nrm = np.linalg.norm(cand)
            if nrm > 0.5:
                u[:, j] = cand / nrm
                break
        else:  # pragma: no cover - cannot happen for consistent shapes
            raise ConvergenceError("failed to complete an orthonormal basis")


def _jacobi_orthogonalize(w: np.ndarray) -> np.ndarray:
    """One-sided (Hestenes) Jacobi: rotate column pairs of `w` in place until
    all pairs are orthogonal, returning the accumulated right factor."""
    n = w.shape[1]
    v = np.eye(n, dtype=np.complex128)
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                wi = w[:, i]
                wj = w[:, j]
                alpha = np.vdot(wi, wi).real
                beta = np.vdot(wj, wj).real
                gamma = np.vdot(wi, wj)
                g = abs(gamma)
                if alpha == 0.0 or beta == 0.0 or g <= _JACOBI_TOL * math.sqrt(alpha * beta):
                    continue
                rotated = True
                phase = gamma / g
                tau = (alpha - beta) / (2.0 * g)
                h = math.hypot(tau, 1.0)
                t = -1.0 / (tau + h) if tau >= 0.0 else 1.0 / (h - tau)
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                rot = np.array(
                    [[c, s], [-s * np.conj(phase), c * np.conj(phase)]],
                    dtype=np.complex128,
                )
                w[:, [i, j]] = w[:, [i, j]] @ rot
                v[:, [i, j]] = v[:, [i, j]] @ rot
        if not rotated:
            return v
    raise ConvergenceError(
        f"Jacobi SVD did not converge within {_JACOBI_MAX_SWEEPS} sweeps"
    )


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition by one-sided Jacobi rotations.

    Returns (u, s, v) with orthonormal columns in u and v, s sorted descending,
    and m = u @ diag(s) @ v.conj().T.  Economy-sized: s has min(rows, cols)
    entries.  Raises ConvergenceError if the sweep cap is exceeded.
    """
    a = as_array(m, 2)
    rows, cols = a.shape
    transposed = rows < cols
    w = a.conj().T.copy() if transposed else a.copy()
    r = _jacobi_orthogonalize(w)

    norms = np.linalg.norm(w, axis=0)
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    w = w[:, order]
    r = r[:, order]

    dead = norms == 0.0
    left = np.where(dead, 1.0, norms)
    uw = w / left
    if dead.any():
        _complete_orthonormal(uw, dead)

    if transposed:
        return r, norms, uw
    return uw, norms, r


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
    to within `tol`.
    """
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
    the shape of x.  Equivalent to unres(G @ res(x)) for G = tensor_to_matrix(t).
    """
    tt = as_array(t, 3)
    xm = as_array(x, 2)
    if tt.shape[:2] != xm.shape:
        raise ValueError(f"tensor slices {tt.shape[:2]} do not match state shape {xm.shape}")
    if tt.shape[2] != xm.size:
        raise ValueError(f"expected {xm.size} slices, got {tt.shape[2]}")
    y = np.einsum("ijk,ji->k", tt, xm)
    return unres(y, xm.shape[0], xm.shape[1])


def tensor_to_matrix(t) -> np.ndarray:
    """Matrix form of a gate tensor: row k is res(slice_k.T)."""
    tt = as_array(t, 3)
    rows, cols, k = tt.shape
    return tt.transpose(2, 1, 0).reshape(k, rows * cols).copy()


def matrix_to_tensor(g, rows: int, cols: int) -> np.ndarray:
    """Gate tensor whose trace action reproduces y = g @ res(x)."""
    gm = as_array(g, 2)
    if gm.shape[1] != rows * cols:
        raise ValueError(f"matrix with {gm.shape[1]} columns cannot act on {rows}x{cols} states")
    return gm.reshape(gm.shape[0], cols, rows).transpose(2, 1, 0).copy()


def equal_up_to_phase(a, b, tol: float) -> complex | None:
    """Return the phase e^{i phi} with ||a - e^{i phi} b|| <= tol*||b||, if any.

    The candidate phase is read off the largest-modulus entry of b (first one
    in row-major order on ties); None if no unimodular phase works.
    """
    am = as_array(a, 2)
    bm = as_array(b, 2)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    flat_b = bm.reshape(-1)
    k = int(np.argmax(np.abs(flat_b)))
    b_norm = np.linalg.norm(bm)
    if abs(flat_b[k]) == 0.0:
        return 1.0 + 0.0j if np.linalg.norm(am) <= tol * b_norm else None
    ratio = am.reshape(-1)[k] / flat_b[k]
    if abs(ratio) == 0.0:
        return None
    phase = ratio / abs(ratio)
    if np.linalg.norm(am - phase * bm) <= tol * b_norm:
        return complex(phase)
    return None


def is_unitary(m, tol: float) -> bool:
    """True iff ||m† m - I||_F <= tol.  Raises ValueError for non-square input."""
    a = as_array(m, 2)
    if a.shape[0] != a.shape[1]:
        raise ValueError("is_unitary requires a square matrix")
    eye = np.eye(a.shape[0], dtype=np.complex128)
    return bool(np.linalg.norm(a.conj().T @ a - eye) <= tol)
