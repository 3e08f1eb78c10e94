"""The scale contract over the routines where multiplying an input by a power
of two is exact.

R(2**k x) equals R(x), scaled by the same power of two where the answer
scales and unchanged where it does not, bit for bit, for every k that keeps
the inputs normal.  An answer beyond the double range raises a ValueError
that says so; the figures a state or a report gives (QuantumState.norm,
quantization_report's residuals) read inf there instead, as documented.
No RuntimeWarning escapes: the suite turns warnings into errors.

Left out, as no power of two scales or keeps their answers:
principal_unitary_sqrt, sqrt_gate, is_unitary, controlled, SynthesizedGate,
Encoding, Circuit, is_quantization_of and quantization_report's unitarity
residual and verdicts, which depend on unitarity (||u^dagger u - I|| mixes
the scales 4**k and 1) or on a fixed tolerance.  as_array, res, unres,
tensor_to_matrix, matrix_to_tensor and coefficient_matrix only move entries
(test_linalg's test_reshapes_are_exact).  run_circuit, encode_bits,
logical_subspace, fixed_complement, the named gates, synthesis and
enumeration take no numeric input to scale.

At the ends of the range, where no power of two is exact, the routines
are held to a reference instead, on subnormal entries, on a row or column
spanning both extremes, and on the largest double next to the smallest.
svd, schmidt and classify_bipartite: each singular value matches the exact
one to 1e-11 relative, or is 0 where the documented floor puts it, and both
factors stay orthonormal.  kron, kron_apply, tensor_apply and apply_gate,
which share one range rule: each part is within the documented normwise
bound of the exact Fraction result, or a ValueError names the double range
where that result lies beyond it.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlift import encodings as en
from qlift import entanglement as ent
from qlift import linalg as la
from qlift import simulator as sim
from qlift import synthesis as sy
from helpers import random_complex, random_unitary

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 4)


def exponent_range(x) -> tuple[int, int]:
    """(lo, hi): 2**k x keeps every nonzero part of x normal, in
    [2**-1022, 2**1024), exactly for lo <= k <= hi."""
    parts = np.abs(np.asarray(x, dtype=np.complex128).view(np.float64))
    parts = parts[parts > 0]
    return -1021 - math.frexp(parts.min())[1], 1024 - math.frexp(parts.max())[1]


def scales(data, x) -> list[int]:
    """Both ends of x's exponent_range and one k drawn from it."""
    lo, hi = exponent_range(x)
    return [lo, hi, data.draw(st.integers(lo, hi))]


def times(x, k):
    """x * 2**k, part by part, inf beyond the double range."""
    x = np.asarray(x)
    with np.errstate(over="ignore"):
        if np.iscomplexobj(x):
            return np.ldexp(np.ascontiguousarray(x, dtype=np.complex128).view(np.float64), k).view(np.complex128)
        return np.ldexp(x, k)


def same(got, want) -> bool:
    """Bit for bit: dtype, shape and every byte, the signs of zeros too."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_scaled(call, want, k):
    """call() returns want * 2**k bit for bit, or raises a ValueError naming
    the double range exactly when that lies beyond it."""
    want = times(want, k)
    if np.isfinite(want).all():
        assert same(call(), want)
    else:
        with pytest.raises(ValueError, match="double range"):
            call()


@given(dims, dims, seeds, st.data())
@settings(max_examples=60, deadline=None)
def test_svd(rows, cols, seed, data):
    m = random_complex(np.random.default_rng(seed), (rows, cols))
    u, s, v = la.svd(m)
    for k in scales(data, m):
        s_k = times(s, k)
        if not np.isfinite(s_k).all():
            with pytest.raises(ValueError, match="double range"):
                la.svd(times(m, k))
            continue
        got = la.svd(times(m, k))
        assert same(got[0], u) and same(got[1], s_k) and same(got[2], v)


@given(dims, dims, st.booleans(), seeds, st.data())
@settings(max_examples=60, deadline=None)
def test_schmidt_and_classify_bipartite(dim_a, dim_b, product, seed, data):
    rng = np.random.default_rng(seed)
    x = random_complex(rng, (dim_a * dim_b,))
    if product:
        x = np.kron(random_complex(rng, (dim_a,)), random_complex(rng, (dim_b,)))
    want = ent.schmidt(x, dim_a, dim_b)
    kind = ent.classify_bipartite(x, dim_a, dim_b)
    for k in scales(data, x):
        got = ent.schmidt(times(x, k), dim_a, dim_b)
        assert got.rank == want.rank and same(got.coefficients, want.coefficients)
        assert same(got.left_basis, want.left_basis) and same(got.right_basis, want.right_basis)
        assert ent.classify_bipartite(times(x, k), dim_a, dim_b) is kind


@given(st.tuples(dims, dims), st.tuples(dims, dims), st.booleans(), seeds, st.data())
@settings(max_examples=60, deadline=None)
def test_kron(shape_a, shape_b, vectors, seed, data):
    rng = np.random.default_rng(seed)
    a, b = random_complex(rng, shape_a), random_complex(rng, shape_b)
    if vectors:
        a, b = a.reshape(-1), b.reshape(-1)
    want = la.kron(a, b)
    for p, q in zip(scales(data, a), scales(data, b)):
        assert_scaled(lambda: la.kron(times(a, p), times(b, q)), want, p + q)


@given(st.lists(st.tuples(dims, dims), min_size=1, max_size=3), st.integers(0, 2), seeds, st.data())
@settings(max_examples=60, deadline=None)
def test_kron_apply(shapes, rest, seed, data):
    """Each factor and the operand scaled by their own powers of two."""
    rng = np.random.default_rng(seed)
    mats = [random_complex(rng, shape) for shape in shapes]
    cols = math.prod(c for _, c in shapes)
    x = random_complex(rng, (cols, rest) if rest else (cols,))
    want = la.kron_apply(mats, x)
    for ks in zip(*(scales(data, a) for a in (*mats, x))):
        assert_scaled(lambda: la.kron_apply([times(m, q) for m, q in zip(mats, ks)], times(x, ks[-1])), want, sum(ks))


@given(dims, dims, seeds, st.data())
@settings(max_examples=60, deadline=None)
def test_tensor_apply(rows, cols, seed, data):
    rng = np.random.default_rng(seed)
    t, x = random_complex(rng, (cols, rows, rows * cols)), random_complex(rng, (rows, cols))
    want = la.tensor_apply(t, x)
    for p, q in zip(scales(data, t), scales(data, x)):
        assert_scaled(lambda: la.tensor_apply(times(t, p), times(x, q)), want, p + q)


@given(dims, dims, st.floats(-np.pi, np.pi), st.sampled_from([0.0, 1e-9, 1.0]), seeds, st.data())
@settings(max_examples=60, deadline=None)
def test_equal_up_to_phase(rows, cols, phi, noise, seed, data):
    """a and b scaled by one power of two; the phase, or None, is kept."""
    rng = np.random.default_rng(seed)
    b = random_complex(rng, (rows, cols))
    a = np.exp(1j * phi) * b + noise * random_complex(rng, (rows, cols))
    want = la.equal_up_to_phase(a, b, 1e-9)
    for k in scales(data, np.stack([a, b])):
        got = la.equal_up_to_phase(times(a, k), times(b, k), 1e-9)
        assert got == want if want is None else same(got, want)


@given(st.sampled_from(en.BUILTIN_ENCODINGS), st.integers(1, 2), st.sampled_from(["basis", "dense"]), seeds, st.data())
@settings(max_examples=60, deadline=None)
def test_state_routines(name, n, kind, seed, data):
    """QuantumState.norm and .normalized, classify_state, basis_probabilities
    and apply_gate on a state scaled by a power of two."""
    enc = en.builtin_encoding(name)
    rng = np.random.default_rng(seed)
    dim = enc.ambient_dim**n
    amps = random_complex(rng, (dim,))
    if kind == "basis":
        amps = en.encode_bits(enc, "".join(rng.choice(["0", "1"], n))).amplitudes * amps[0]
    s = en.QuantumState(amps, enc, n)
    gate, targets = random_unitary(rng, enc.ambient_dim), (int(rng.integers(n)),)
    norm, unit = s.norm, s.normalized()
    verdicts = [en.classify_state(enc, s, tol) for tol in (0.0, 1e-9, 0.5)]
    probabilities = sim.basis_probabilities(s)
    applied = sim.apply_gate(s, gate, targets).amplitudes
    for k in scales(data, amps):
        sk = en.QuantumState(times(amps, k), enc, n)
        assert same(sk.norm, times(norm, k)) and same(sk.normalized(), unit)
        assert [en.classify_state(enc, sk, tol) for tol in (0.0, 1e-9, 0.5)] == verdicts
        assert sim.basis_probabilities(sk) == probabilities
        assert_scaled(lambda: sim.apply_gate(sk, gate, targets).amplitudes, applied, k)


@given(st.sampled_from(en.BUILTIN_ENCODINGS), st.sampled_from(["synthesized", "dense"]), seeds, st.data())
@settings(max_examples=40, deadline=None)
def test_quantization_report_residuals(name, kind, seed, data):
    """The subspace and complement residuals of u * 2**k are those of u
    scaled, inf beyond the double range."""
    enc = en.builtin_encoding(name)
    rng = np.random.default_rng(seed)
    f = sy.ClassicalFunction.negation()
    u = sy.quantize_reversible(f, enc).matrix.copy()
    if kind == "dense":
        u = random_complex(rng, u.shape)

    def residuals(m):
        report = sy.quantization_report(m, f, enc, 1e-9)
        figures = [c.residual for c in report.subspace_checks]
        return np.array(figures + ([] if report.complement_residual is None else [report.complement_residual]))

    want = residuals(u)
    for k in scales(data, u):
        assert same(residuals(times(u, k)), times(want, k))


EXTREMES = [
    [[5e-324, 0], [0, 2e-320]],
    [[1, 5e-324], [3e-321, 1e-310]],
    [[1e300, 1], [1e-300, 2]],
    [[1.7e308, 0], [0, 5e-324]],
]


def exact_singular_values(a) -> list:
    """The singular values of a real 2x2 matrix as mpmath numbers, from
    sigma1^2 + sigma2^2 = ||a||_F^2 and sigma1 sigma2 = |det a| at 1300
    digits, enough for any ratio of doubles."""
    with mpmath.workdps(1300):
        (p, q), (r, t) = [[mpmath.mpf(float(x)) for x in row] for row in a]
        f, det = p * p + q * q + r * r + t * t, abs(p * t - q * r)
        s1 = mpmath.sqrt((f + mpmath.sqrt(f * f - 4 * det * det)) / 2)
        return [+s1, det / s1 if s1 else mpmath.mpf(0)]


def assert_matches_or_floored(got, want, largest):
    """got[i] within 1e-11 relative of want[i], or 0 where want[i] lies
    below the floor of about 1.5e-147 times the largest entry (svd's
    _JACOBI_FLOOR, scaled back), taken here as 3e-147 times it."""
    for g, w in zip(got, want):
        floored = g == 0.0 and w < 3e-147 * largest
        assert floored or abs(mpmath.mpf(float(g)) - w) <= 1e-11 * w, (g, w)


@pytest.mark.parametrize("a", EXTREMES)
def test_svd_at_the_ends_of_the_range(a):
    a = np.array(a, dtype=float)
    u, s, v = la.svd(a)
    assert_matches_or_floored(s, exact_singular_values(a), np.abs(a).max())
    assert np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-15
    assert np.linalg.norm(v.conj().T @ v - np.eye(2)) <= 1e-15
    k = -math.frexp(np.abs(a).max())[1]
    assert np.linalg.norm((u * times(s, k)) @ v.conj().T - times(a, k)) <= 1e-15


@pytest.mark.parametrize("a", EXTREMES)
def test_schmidt_and_classify_bipartite_at_the_ends_of_the_range(a):
    """The state is a's entries in row-major order, so its Schmidt
    coefficients are a's singular values normalized."""
    a = np.array(a, dtype=float)
    want = exact_singular_values(a)
    with mpmath.workdps(1300):
        norm = mpmath.sqrt(sum(w * w for w in want))
        want = [w / norm for w in want]
    got = ent.schmidt(a.reshape(-1), 2, 2)
    assert_matches_or_floored(got.coefficients, want, np.abs(a).max() / norm)
    assert got.rank == sum(w > ent.RANK_TOL * want[0] for w in want)
    for basis in (got.left_basis, got.right_basis):
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(2)) <= 1e-15
    kind = ent.Separability.SEPARABLE if got.rank == 1 else ent.Separability.ENTANGLED
    assert ent.classify_bipartite(a.reshape(-1), 2, 2) is kind


# Moderate operands with exact dyadic parts, to pair with the extremes.
B = np.array([[0.5, 0.25j], [-0.125, 0.5 + 0.25j]])
V = np.array([0.5, -0.25, 0.125j, 0.5])
G = np.array([[0.6, 0.8j], [0.8j, 0.6]])  # unitary to within roundoff
EPS = Fraction(np.finfo(float).eps)
TINY = Fraction(2) ** -1074


def exact(x):
    """The real and imaginary parts of x as object arrays of Fractions."""
    x = np.asarray(x, dtype=np.complex128)
    fraction = np.vectorize(Fraction, otypes=[object])
    return fraction(x.real), fraction(x.imag)


def exact_product(op, a, b):
    """op(a, b) for a bilinear op (np.kron, np.matmul) on exact operands."""
    (ar, ai), (br, bi) = a, b
    return op(ar, br) - op(ai, bi), op(ar, bi) + op(ai, br)


def largest(x) -> Fraction:
    """The largest real or imaginary part of x in magnitude, exactly."""
    return max(abs(v) for part in exact(x) for v in part.flat)


def assert_normwise(call, want, operands, terms):
    """call() is within the normwise bound of the exact want: each part's
    error at most a few units of roundoff, times the terms summed per entry,
    of M, the product of the operands' largest parts, plus the subnormal
    spacing 2**-1074 per rounding; or call() raises a ValueError naming the
    double range, exactly when a part of want lies beyond it."""
    if max(abs(v) for part in want for v in part.flat) > Fraction(np.finfo(float).max):
        with pytest.raises(ValueError, match="double range"):
            call()
        return
    got = exact(call())
    bound = 8 * terms * (EPS * math.prod(map(largest, operands)) + TINY)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert all(abs(x - y) <= bound for x, y in zip(g.flat, w.flat))


@pytest.mark.parametrize("a", EXTREMES)
@pytest.mark.parametrize("operands", [lambda a: (a, B), lambda a: (B, a), lambda a: (a, a)], ids=["aB", "Ba", "aa"])
def test_kron_at_the_ends_of_the_range(a, operands):
    ops = operands(np.array(a, dtype=float))
    want = exact_product(np.kron, *map(exact, ops))
    assert_normwise(lambda: la.kron(*ops), want, ops, 1)


@pytest.mark.parametrize("a", EXTREMES)
@pytest.mark.parametrize(
    "operands",
    [lambda a: ([a, B], V), lambda a: ([B, B], a.reshape(-1)), lambda a: ([a, a], a.reshape(-1))],
    ids=["[a, B] on V", "[B, B] on res(a)", "[a, a] on res(a)"],
)
def test_kron_apply_at_the_ends_of_the_range(a, operands):
    mats, x = operands(np.array(a, dtype=float))
    dense = exact_product(np.kron, *map(exact, mats))
    want = exact_product(np.matmul, dense, exact(x))
    assert_normwise(lambda: la.kron_apply(mats, x), want, [*mats, x], 4)


@pytest.mark.parametrize("a", EXTREMES)
@pytest.mark.parametrize(
    "operands",
    [lambda a: (np.kron(B, B), a), lambda a: (np.kron(a, B), V.reshape(2, 2)), lambda a: (np.kron(a, B), a)],
    ids=["kron(B, B) on a", "kron(a, B) on V", "kron(a, B) on a"],
)
def test_tensor_apply_at_the_ends_of_the_range(a, operands):
    """The gate matrix g is numpy's product, however it rounds: the
    reference acts with g as given."""
    g, x = operands(np.array(a, dtype=float))
    want = exact_product(np.matmul, exact(g), exact(x.reshape(-1)))
    t = la.matrix_to_tensor(g, 2, 2)
    assert_normwise(lambda: la.tensor_apply(t, x).reshape(-1), want, [g, x], 4)


@pytest.mark.parametrize("a", EXTREMES)
@pytest.mark.parametrize("target", [0, 1])
def test_apply_gate_at_the_ends_of_the_range(a, target):
    """A qubit gate on one of two subsystems of the state a in row-major
    order, held to kron(G, I) or kron(I, G) on it."""
    amps = np.ravel(a)
    s = en.QuantumState(amps, en.builtin_encoding("qubit"), 2)
    factors = (exact(G), exact(np.eye(2)))
    full = exact_product(np.kron, *(factors if target == 0 else factors[::-1]))
    want = exact_product(np.matmul, full, exact(amps))
    assert_normwise(lambda: sim.apply_gate(s, G, (target,)).amplitudes, want, [G, amps], 2)
