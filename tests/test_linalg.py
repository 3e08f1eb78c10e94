import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlift import linalg as la
from helpers import random_complex, random_unitary

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

small_dims = st.integers(min_value=1, max_value=3)
finite_complex = st.complex_numbers(
    max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


def complex_matrix(rows, cols):
    return st.lists(
        st.lists(finite_complex, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda rows_: np.array(rows_, dtype=complex))


class TestKron:
    def test_basis_vectors(self):
        """kron of |0> and |1> lands on ambient index 1."""
        out = la.kron(np.array([1, 0]), np.array([0, 1]))
        assert np.array_equal(out, np.array([0, 1, 0, 0], dtype=complex))

    def test_identity(self):
        assert np.array_equal(la.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_x_with_x_is_antidiagonal(self):
        assert np.array_equal(la.kron(X, X), np.fliplr(np.eye(4)).astype(complex))

    def test_entrywise_definition(self):
        """Oracle: expand the definition entry by entry."""
        rng = np.random.default_rng(11)
        a = random_complex(rng, (2, 3))
        b = random_complex(rng, (3, 2))
        out = la.kron(a, b)
        for i1 in range(2):
            for j1 in range(3):
                for i2 in range(3):
                    for j2 in range(2):
                        got = out[i1 * 3 + i2, j1 * 2 + j2]
                        assert abs(got - a[i1, j1] * b[i2, j2]) < 1e-14

    @given(
        st.tuples(small_dims, small_dims).flatmap(lambda s: complex_matrix(*s)),
        st.tuples(small_dims, small_dims).flatmap(lambda s: complex_matrix(*s)),
        st.tuples(small_dims, small_dims).flatmap(lambda s: complex_matrix(*s)),
    )
    @settings(max_examples=40, deadline=None)
    def test_associative(self, a, b, c):
        lhs = la.kron(la.kron(a, b), c)
        rhs = la.kron(a, la.kron(b, c))
        scale = max(1.0, float(np.linalg.norm(rhs)))
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale

    def test_mixed_product(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = random_complex(rng, (2, 3))
            c = random_complex(rng, (3, 2))
            b = random_complex(rng, (3, 3))
            d = random_complex(rng, (3, 4))
            lhs = la.kron(a, b) @ la.kron(c, d)
            rhs = la.kron(a @ c, b @ d)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            la.kron(np.array([[np.nan, 0], [0, 1]]), X)


class TestKronApply:
    @given(st.data(), st.integers(min_value=1, max_value=4), st.booleans(), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_kron(self, data, count, real, rest):
        """kron_apply(mats, x) == kron(*mats) @ x for a vector (rest 0) or a
        matrix with `rest` columns."""
        shapes = [data.draw(st.tuples(small_dims, small_dims)) for _ in range(count)]
        mats = [data.draw(complex_matrix(*shape)) for shape in shapes]
        cols = math.prod(c for _, c in shapes)
        x = data.draw(complex_matrix(cols, max(rest, 1)))
        if rest == 0:
            x = x[:, 0]
        if real:
            mats, x = [m.real for m in mats], x.real
        dense = functools.reduce(np.kron, mats)
        want = dense @ x
        got = la.kron_apply(mats, x)
        assert got.shape == want.shape
        scale = float(np.linalg.norm(np.abs(dense) @ np.abs(x)))
        assert np.linalg.norm(got - want) <= 1e-12 * scale + 1e-300

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="column counts"):
            la.kron_apply([np.eye(2), np.eye(3)], np.ones(5))
        with pytest.raises(ValueError, match="column counts"):
            la.kron_apply([np.eye(2)], np.ones((2, 2, 2)))


class TestSvd:
    def test_bell_coefficient_matrix(self):
        """The flipped coefficient matrix has two equal singular values."""
        _, s, _ = la.svd(np.array([[0, 1], [1, 0]]) / np.sqrt(2))
        assert np.allclose(s, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_identity(self):
        _, s, _ = la.svd(np.eye(2))
        assert np.allclose(s, [1, 1])

    def test_rank_one(self):
        _, s, _ = la.svd(np.ones((2, 2)) / 2)
        assert np.allclose(s, [1, 0], atol=1e-14)

    @pytest.mark.parametrize("shape", [(2, 2), (5, 3), (3, 5), (8, 8), (16, 16), (1, 6)])
    def test_reconstruction_and_numpy_agreement(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        for _ in range(5):
            a = random_complex(rng, shape)
            u, s, v = la.svd(a)
            assert np.all(np.diff(s) <= 0)
            rec = u @ np.diag(s) @ v.conj().T
            assert np.linalg.norm(rec - a) <= 1e-10 * np.linalg.norm(a)
            k = min(shape)
            assert np.allclose(u.conj().T @ u, np.eye(k), atol=1e-12)
            assert np.allclose(v.conj().T @ v, np.eye(k), atol=1e-12)
            assert np.allclose(s, np.linalg.svd(a, compute_uv=False), atol=1e-10)

    def test_invariant_under_unitaries(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_complex(rng, (4, 4))
            _, s0, _ = la.svd(a)
            _, s1, _ = la.svd(random_unitary(rng, 4) @ a @ random_unitary(rng, 4))
            assert np.allclose(s0, s1, atol=1e-9)

    def test_zero_matrix(self):
        u, s, v = la.svd(np.zeros((3, 2)))
        assert np.allclose(s, 0)
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            la.svd(np.zeros((0, 2)))

    def test_singular_values_beyond_double_range_rejected(self):
        with pytest.raises(ValueError, match="exceeds the double range"):
            la.svd(np.full((2, 2), 1.5e308))
        _, s, _ = la.svd(np.diag([1.7e308, -1e170j]))
        assert s == pytest.approx([1.7e308, 1e170], rel=1e-15)

    def test_columns_below_the_floor_count_as_zero(self):
        """A singular value under about 1.5e-147 of the largest entry is 0."""
        u, s, v = la.svd(np.diag([1.0, 1e-140, 1e-150]))
        assert s[0] == 1.0 and s[1] == pytest.approx(1e-140, rel=1e-15) and s[2] == 0.0
        assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-15)

    def test_sweep_cap_raises_convergence_error(self, monkeypatch):
        monkeypatch.setattr(la, "_JACOBI_MAX_SWEEPS", 0)
        with pytest.raises(la.ConvergenceError, match="converge"):
            la.svd(np.ones((2, 2)))


def assert_valid_svd(a):
    """svd(a) reconstructs a, has orthonormal factors and descending values,
    and matches LAPACK on a divided by its largest entry (so the reference
    squares nothing out of range)."""
    u, s, v = la.svd(a)
    k = min(a.shape)
    assert u.shape == (a.shape[0], k) and s.shape == (k,) and v.shape == (a.shape[1], k)
    assert np.all(np.diff(s) <= 0)
    assert np.linalg.norm(u.conj().T @ u - np.eye(k)) <= 1e-12
    assert np.linalg.norm(v.conj().T @ v - np.eye(k)) <= 1e-12
    scale = np.max(np.abs(a))
    ref = np.linalg.svd(a / scale, compute_uv=False)
    assert np.all(np.abs(s / scale - ref) <= 1e-12 * ref[0])
    rec = (u * (s / scale)) @ v.conj().T
    assert np.linalg.norm(rec - a / scale) <= 1e-10 * np.linalg.norm(a / scale)


def with_spectrum(rng, rows, cols, spectrum):
    """rows x cols matrix with the given nonzero singular values."""
    r = len(spectrum)
    return (random_unitary(rng, rows)[:, :r] * spectrum) @ random_unitary(rng, cols)[:, :r].conj().T


shapes = st.tuples(st.integers(1, 9), st.integers(1, 9))
exponents = st.integers(-300, 300)
seeds = st.integers(0, 2**32 - 1)


class TestSvdProperties:
    @given(shapes, exponents, seeds)
    @example((1, 7), 300, 0)
    @example((7, 1), -300, 0)
    @example((6, 5), -300, 1)
    @example((5, 9), 300, 2)
    @settings(max_examples=150, deadline=None)
    def test_full_rank_at_any_scale(self, shape, exponent, seed):
        rng = np.random.default_rng(seed)
        assert_valid_svd(random_complex(rng, shape) * 10.0**exponent)

    @given(shapes, st.data(), exponents, seeds)
    @settings(max_examples=150, deadline=None)
    def test_rank_deficient(self, shape, data, exponent, seed):
        rows, cols = shape
        rank = data.draw(st.integers(1, max(1, min(shape) - 1)))
        rng = np.random.default_rng(seed)
        a = with_spectrum(rng, rows, cols, rng.uniform(0.1, 1.0, rank)) * 10.0**exponent
        assert_valid_svd(a)
        _, s, _ = la.svd(a)
        assert np.all(s[rank:] <= 1e-13 * s[0])

    @given(shapes, exponents, seeds)
    @settings(max_examples=60, deadline=None)
    def test_exactly_zero_and_repeated_columns(self, shape, exponent, seed):
        """Columns that are exact zeros or exact copies: some singular values
        are exactly or nearly zero and their u columns must be completed."""
        rows, cols = shape
        rng = np.random.default_rng(seed)
        a = random_complex(rng, shape) * 10.0**exponent
        a[:, rng.integers(0, cols)] = 0.0
        if cols > 1:
            a[:, -1] = a[:, 0]
        if np.any(a):
            assert_valid_svd(a)

    @given(st.sampled_from([1e-11, 1e-13]), st.integers(2, 8), exponents, seeds)
    @settings(max_examples=80, deadline=None)
    def test_near_degenerate_spectrum(self, gap, size, exponent, seed):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.1, 1.0, size // 2)
        spectrum = np.sort(np.concatenate([base, base * (1 + gap), [0.05] * (size % 2)]))[::-1]
        assert_valid_svd(with_spectrum(rng, size, size, spectrum) * 10.0**exponent)

    @given(shapes, exponents, seeds)
    @settings(max_examples=80, deadline=None)
    def test_columns_graded_over_300_orders(self, shape, exponent, seed):
        """Columns scaled from 1 down to 1e-300: the squares of the small ones
        underflow, and their u columns must still be orthonormal."""
        rng = np.random.default_rng(seed)
        grades = 10.0 ** np.concatenate([[0.0], rng.uniform(-300, 0, shape[1] - 1)])
        assert_valid_svd(random_complex(rng, shape) * grades * 10.0**exponent)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_round_robin_covers_each_pair_once_per_sweep(self, n):
        rounds = la._round_robin(n)
        assert len(rounds) == n - 1 + n % 2
        seen = []
        for i, j in rounds:
            assert len(i) == len(j) == n // 2
            assert np.all(i < j)
            assert len(set(i.tolist() + j.tolist())) == 2 * len(i)
            seen += zip(i.tolist(), j.tolist())
        assert sorted(seen) == list(itertools.combinations(range(n), 2))

    def test_convergence_error_carries_figures(self, monkeypatch):
        monkeypatch.setattr(la, "_JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(la.ConvergenceError, match="converge") as err:
            la.svd(random_complex(np.random.default_rng(3), (8, 8)))
        assert err.value.sweeps == 1
        assert la._JACOBI_TOL < err.value.off_diagonal < 1.0
        assert f"{err.value.off_diagonal:.3e}" in str(err.value)
        monkeypatch.setattr(la, "_JACOBI_MAX_SWEEPS", 0)
        with pytest.raises(la.ConvergenceError) as err:
            la.svd(np.ones((2, 2)))
        assert err.value.sweeps == 0
        assert err.value.off_diagonal == pytest.approx(1.0)


class TestPrincipalSqrt:
    def test_flip_gate(self):
        """Root of the bit flip: all entries (1 +/- i)/2."""
        expected = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
        got = la.principal_unitary_sqrt(X)
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(got @ got, X, atol=1e-12)

    def test_identity(self):
        assert np.allclose(la.principal_unitary_sqrt(np.eye(2)), np.eye(2))

    def test_qutrit_flip(self):
        not3 = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
        expected = 0.5 * np.array(
            [[1 + 1j, 0, 1 - 1j], [0, 2, 0], [1 - 1j, 0, 1 + 1j]]
        )
        assert np.allclose(la.principal_unitary_sqrt(not3), expected, atol=1e-12)

    def test_branch_maps_minus_one_to_plus_i(self):
        got = la.principal_unitary_sqrt(np.diag([-1, 1]).astype(complex))
        assert np.allclose(got, np.diag([1j, 1]), atol=1e-12)

    def test_random_unitaries_square_back(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            u = random_unitary(rng, int(rng.integers(1, 9)))
            w = la.principal_unitary_sqrt(u)
            assert np.linalg.norm(w @ w - u) <= 1e-9
            assert la.is_unitary(w, 1e-9)

    def test_conjugate_eigenphase_pairs(self):
        """Eigenphases theta and -theta share a cosine; the skew part must
        split them."""
        rng = np.random.default_rng(17)
        for theta in [0.4, 1e-4, np.pi - 1e-5, np.pi / 2]:
            q = random_unitary(rng, 2)
            u = q @ np.diag([np.exp(1j * theta), np.exp(-1j * theta)]) @ q.conj().T
            w = la.principal_unitary_sqrt(u)
            assert np.linalg.norm(w @ w - u) <= 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            la.principal_unitary_sqrt(np.array([[1, 1], [0, 1]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            la.principal_unitary_sqrt(np.ones((2, 3)))


class TestResUnres:
    def test_row_order(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.array_equal(la.res(a), np.array([1, 2, 3, 4], dtype=complex))

    def test_basis_elements(self):
        assert np.array_equal(la.res(np.array([[1, 0], [0, 0]])), np.array([1, 0, 0, 0], dtype=complex))
        assert np.array_equal(
            la.unres(np.array([0, 1, 0, 0]), 2, 2), np.array([[0, 1], [0, 0]], dtype=complex)
        )

    def test_unres_values(self):
        assert np.array_equal(
            la.unres(np.array([1, 2, 3, 4]), 2, 2), np.array([[1, 2], [3, 4]], dtype=complex)
        )

    @given(st.tuples(small_dims, small_dims).flatmap(lambda s: complex_matrix(*s)))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, m):
        assert np.array_equal(la.unres(la.res(m), *m.shape), m)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            la.unres(np.array([1, 2, 3]), 2, 2)


# Slices of the (2,2,4) flip tensor for matrix-encoded states.
FLIP_TENSOR = np.stack(
    [
        np.array([[0, 0], [0, 1]]),
        np.array([[0, 0], [1, 0]]),
        np.array([[0, 1], [0, 0]]),
        np.array([[1, 0], [0, 0]]),
    ],
    axis=-1,
).astype(complex)


class TestGateTensor:
    def test_flip_tensor_on_e11(self):
        """The printed flip tensor sends E11 to E22 (both inside logical 0)."""
        out = la.tensor_apply(FLIP_TENSOR, np.array([[1, 0], [0, 0]], dtype=complex))
        assert np.array_equal(out, np.array([[0, 0], [0, 1]], dtype=complex))

    def test_flip_tensor_entry_pattern(self):
        """Trace oracle: tr(slice_k x) computed by explicit loops."""
        x = np.array([[1, 2], [3, 4]], dtype=complex)
        expected = np.empty(4, dtype=complex)
        for k in range(4):
            expected[k] = sum(
                FLIP_TENSOR[i, j, k] * x[j, i] for i in range(2) for j in range(2)
            )
        assert np.array_equal(la.tensor_apply(FLIP_TENSOR, x), expected.reshape(2, 2))
        # frozen value: x11 and x22 swap, off-diagonals stay put
        assert np.array_equal(
            la.tensor_apply(FLIP_TENSOR, x), np.array([[4, 2], [3, 1]], dtype=complex)
        )

    def test_zero_tensor(self):
        out = la.tensor_apply(np.zeros((2, 2, 4)), np.array([[1, 2], [3, 4]]))
        assert np.array_equal(out, np.zeros((2, 2), dtype=complex))

    def test_matches_matrix_route(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            t = random_complex(rng, (2, 2, 4))
            x = random_complex(rng, (2, 2))
            g = la.tensor_to_matrix(t)
            lhs = la.tensor_apply(t, x)
            rhs = la.unres(g @ la.res(x), 2, 2)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_matrix_tensor_round_trip(self):
        rng = np.random.default_rng(29)
        g = random_complex(rng, (4, 4))
        assert np.array_equal(la.tensor_to_matrix(la.matrix_to_tensor(g, 2, 2)), g)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            la.tensor_apply(np.zeros((2, 2, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            la.tensor_apply(np.zeros((2, 2, 4)), np.zeros((3, 3)))


class TestEqualUpToPhase:
    def test_scalar_multiple(self):
        phase = la.equal_up_to_phase(1j * X, X, 1e-12)
        assert phase is not None and abs(phase - 1j) < 1e-12

    def test_different_gates(self):
        assert la.equal_up_to_phase(X, H, 1e-9) is None

    def test_recovers_random_phase(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            b = random_complex(rng, (3, 3))
            phi = rng.uniform(-np.pi, np.pi)
            got = la.equal_up_to_phase(np.exp(1j * phi) * b, b, 1e-9)
            assert got is not None and abs(got - np.exp(1j * phi)) < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            la.equal_up_to_phase(X, np.eye(3), 1e-9)

    def test_norms_neither_underflow_nor_overflow(self):
        b = np.diag([1e-200, 2e-200])
        assert la.equal_up_to_phase(np.diag([1e-200, 1e-200]), b, 1e-9) is None
        assert la.equal_up_to_phase(1j * b, b, 1e-9) == pytest.approx(1j)
        big = np.diag([1e200, 1e200])
        assert la.equal_up_to_phase(big, big, 1e-9) == 1.0
        assert la.equal_up_to_phase(np.array([[1.0]]), np.array([[1e-320]]), 1e-9) is None
        huge = np.diag([1.5e308, 1.5e308])
        assert la.equal_up_to_phase(huge, np.diag([1.5e308, -1.5e308]), 1e-9) is None

    def test_tiny_difference_is_not_equality(self):
        a = np.array([[1.0, 1e-170], [0.0, 1.0]])
        assert la.equal_up_to_phase(a, np.eye(2), 0.0) is None
        assert la.equal_up_to_phase(a, np.eye(2), 1e-160) == 1.0

    @given(st.integers(1, 4), st.floats(-np.pi, np.pi), exponents, seeds)
    @example(2, 1.0, -200, 0)
    @example(2, -1.0, 300, 0)
    @settings(max_examples=100, deadline=None)
    def test_any_scale(self, n, phi, exponent, seed):
        b = random_complex(np.random.default_rng(seed), (n, n)) * 10.0**exponent
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = la.equal_up_to_phase(np.exp(1j * phi) * b, b, 1e-9)
            assert got is not None and abs(got - np.exp(1j * phi)) < 1e-9
            assert la.equal_up_to_phase(2 * b, b, 1e-9) is None


class TestIsUnitary:
    def test_cnot(self):
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        assert la.is_unitary(cnot, 1e-12)

    def test_zero_row_candidate(self):
        """The 4x4 flip candidate with an all-zero row is not unitary."""
        m = np.array(
            [[0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 1]], dtype=complex
        )
        assert not la.is_unitary(m, 1e-9)

    def test_shear(self):
        assert not la.is_unitary(np.array([[1, 1], [0, 1]]), 1e-9)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            la.is_unitary(np.ones((2, 3)), 1e-9)

    @pytest.mark.parametrize("scale", [5e-324, 1e-200, 1e200, 1.7e308])
    def test_scaled_identity_is_not_unitary(self, scale):
        assert not la.is_unitary(np.eye(2) * scale, 1e-9)

    @given(st.integers(1, 6), exponents, seeds)
    @example(2, 200, 0)
    @example(3, -200, 0)
    @settings(max_examples=100, deadline=None)
    def test_residual_at_any_scale(self, n, exponent, seed):
        """||(s u)^dagger (s u) - I|| = |s^2 - 1| sqrt(n) for a unitary u."""
        u = random_unitary(np.random.default_rng(seed), n)
        s = 10.0**exponent
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert la.is_unitary(u * s, 1e-9) == (exponent == 0)
            residual = la._unitarity_residual(u * s)
        if exponent != 0:
            assert residual == pytest.approx(abs(s * s - 1.0) * math.sqrt(n), rel=1e-9)
