import functools
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qlift import linalg as la
from helpers import random_complex, random_unitary

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

small_dims = st.integers(min_value=1, max_value=3)
finite_complex = st.complex_numbers(
    max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


def same_bits(got, want) -> bool:
    """Bit for bit: dtype, shape and every byte."""
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


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

    def test_rejects_bad_ndim(self):
        with pytest.raises(ValueError, match="vectors or matrices"):
            la.kron(np.ones((2, 2, 2)), X)

    def test_product_beyond_double_range_rejected(self):
        with pytest.raises(ValueError, match="double range"):
            la.kron([1e200, 0], [1e200, 0])

    def test_accuracy_is_normwise(self):
        """The exact product is [2**-1075, 5e-324, 0.5, 1].  Its first entry
        underflows, so the product is formed again from the operands scaled
        down by 2, which flushes the representable 5e-324 to 0 too: each
        entry is within a unit of roundoff of M = 1, the product of the
        largest entries, but not of its exact value."""
        got = la.kron([5e-324, 1.0], [0.5, 1.0])
        assert np.array_equal(got, [0.0, 0.0, 0.5, 1.0])
        assert np.abs(got - [0.0, 5e-324, 0.5, 1.0]).max() <= np.finfo(float).eps

    @pytest.mark.parametrize("flags", [{"under": "raise"}, {"all": "raise"}])
    def test_redo_ignores_the_callers_flags(self, flags):
        """The range rule's redo runs under its own flags: under a caller's
        raise settings both products return the bits they return under the
        default flags, and the caller's flags hold again afterwards."""
        calls = [
            lambda: la.kron([5e-324, 1.0], [0.5, 1.0]),
            lambda: la.kron_apply([np.diag([1e300, 1.0]), np.diag([1e-300, 1.0])], np.ones(4) * 1e-10),
        ]
        want = [call().tobytes() for call in calls]
        with np.errstate(**flags):
            before = np.geterr()
            assert [call().tobytes() for call in calls] == want
            assert np.geterr() == before


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

    @pytest.mark.parametrize("factor", [np.ones(2), np.ones((2, 2, 2)), np.float64(2.0)])
    def test_factors_must_be_matrices(self, factor):
        with pytest.raises(ValueError, match="factors must be matrices") as info:
            la.kron_apply([np.eye(1), factor], np.ones(2))
        assert str(np.shape(factor)) in str(info.value)

    def test_product_beyond_double_range_rejected(self):
        with pytest.raises(ValueError, match="double range"):
            la.kron_apply([np.eye(2) * 1e200] * 2, np.ones(4) * 1e200)

    def test_factors_at_opposite_extreme_scales(self):
        """The first partial product, 2**-1200, would underflow to zero
        before the second factor scales it back."""
        got = la.kron_apply([np.eye(2) * 2.0**-600, np.eye(2) * 2.0**600], np.ones(4) * 2.0**-600)
        assert np.array_equal(got, np.full(4, 2.0**-600))

    def test_accuracy_is_normwise(self):
        """The exact result is [1, 1e300, 1e-300, 1]: each entry is within
        a few units of roundoff of M = 1e300, the product of the largest
        entries, though the 1e-300 is far below M and may underflow."""
        got = la.kron_apply([np.diag([1e300, 1.0]), np.diag([1e-300, 1.0])], np.ones(4))
        exact = np.array([1.0, 1e300, 1e-300, 1.0])
        assert np.abs(got - exact).max() <= 4 * 2 * np.finfo(float).eps * 1e300
        assert np.array_equal(got[[0, 1, 3]], exact[[0, 1, 3]])

    def test_contraction_inside_the_range_is_not_scaled(self):
        """No range fault, so no scaling: scaling x by 2**-997 first would
        flush its 1e-300 to 0."""
        x = np.array([1e300, 1e-300])
        assert same_bits(la.kron_apply([np.eye(2)], x), x)

    def test_products_inside_the_range_are_exact(self):
        """Every product of the factors' entries and x is representable, so
        no flag is raised and the 1e-300 comes back exactly."""
        got = la.kron_apply([np.diag([1e300, 1.0]), np.diag([1e-300, 1.0])], np.ones(4))
        assert same_bits(got, np.array([1.0, 1e300, 1e-300, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operand_rejected(self, bad):
        with pytest.raises(ValueError, match="NaN or Inf"):
            la.kron_apply([np.eye(2)], np.array([bad, 0.0]))


# Rows and columns already in decreasing norm and the largest entry in
# [0.5, 1), so svd factors this very matrix: R^dagger's two columns have a
# cosine of 1/sqrt(5), far from orthogonal, so the cold start rotates them.
SKEWED_R = np.array([[0.5, 0.25], [0.0, 0.25]], dtype=complex)


def sorted_rank_one(n, seed):
    """An n x n outer product x y^dagger with |x| and |y| in decreasing order
    and its largest part at 0.75, so svd factors this very matrix.  Its n - 1
    near-null columns of R^dagger v0 hold rounding noise that LAPACK's left
    factor v0 of R leaves far from orthogonal relative to their own norms
    (divide and conquer, above 25 columns), so the warm-started sweeps still
    have work to do (7 or 8 sweeps at n = 32)."""
    rng = np.random.default_rng(seed)
    x, y = (z[np.argsort(-np.abs(z))] for z in random_complex(rng, (2, n)))
    a = np.outer(x, y.conj())
    return a * (0.75 / np.abs(a.view(float)).max())


RANK_ONE_32 = sorted_rank_one(32, 0)


def cold_svd(a):
    """svd(a) with the sweeps started from v0 = I in place of LAPACK's left
    factor of R: the Jacobi SVD as it ran without the warm start.  The fake
    LAPACK factor is I itself, C-ordered with positive zeros, which the
    sweeps start from bit for bit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", lambda r: (np.eye(len(r), dtype=complex), None, None))
        return la.svd(a)


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

    @pytest.mark.parametrize("wide", [False, True])
    def test_long_rank_deficient_input_stays_in_its_own_memory(self, wide):
        """The basis completion of a 4096x2 rank-1 input (and of its
        transpose) works in rows x cols: a rows x rows Q would take 256 MiB."""
        a = np.zeros((4096, 2), dtype=complex)
        a[:, 0] = random_complex(np.random.default_rng(31), (4096,))
        a = a.T.copy() if wide else a
        tracemalloc.start()
        try:
            u, s, v = la.svd(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * a.nbytes
        assert s[1] == 0.0 and u.shape == (a.shape[0], 2) and v.shape == (a.shape[1], 2)
        assert np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-14
        assert np.linalg.norm(v.conj().T @ v - np.eye(2)) <= 1e-14

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            la.svd(np.zeros((0, 2)))

    def test_singular_values_beyond_double_range_rejected(self):
        with pytest.raises(ValueError, match="exceeds the double range"):
            la.svd(np.full((2, 2), 1.5e308))
        _, s, _ = la.svd(np.diag([1.7e308, -1e170j]))
        assert s == pytest.approx([1.7e308, 1e170], rel=1e-15)

    def test_columns_below_the_floor_count_as_zero(self):
        """A singular value under about 1.5e-147 of the largest entry is 0.
        diag(1, 1e-160) passes the Gram test from the start, but the loop
        must still sweep once to zero its second column."""
        u, s, v = la.svd(np.diag([1.0, 1e-140, 1e-150]))
        assert s[0] == 1.0 and s[1] == pytest.approx(1e-140, rel=1e-15) and s[2] == 0.0
        assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-15)
        assert la.svd(np.diag([1.0, 1e-160]))[1].tolist() == [1.0, 0.0]

    def test_sweep_cap_raises_convergence_error(self, monkeypatch):
        monkeypatch.setattr(la, "_JACOBI_MAX_SWEEPS", 0)
        with pytest.raises(la.ConvergenceError, match="converge"):
            la.svd(RANK_ONE_32)

    @pytest.mark.parametrize("a", [SKEWED_R, RANK_ONE_32, random_complex(np.random.default_rng(5), (9, 4))])
    def test_lapack_failure_falls_back_to_the_cold_start(self, monkeypatch, a):
        """If LAPACK's SVD of R^dagger fails, the sweeps start from I: svd
        still returns a valid decomposition, the cold start's bit for bit."""
        want = cold_svd(a)

        def fail(rh):
            raise np.linalg.LinAlgError("SVD did not converge")

        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "svd", fail)
            got = la.svd(a)
        assert all(same_bits(g, w) for g, w in zip(got, want))
        assert_valid_svd(a, got)

    def test_sweep_cap_spares_an_already_orthogonal_r(self, monkeypatch):
        """ones((2, 2)) = Q R with a zero second row of R, so the columns of
        R^dagger are orthogonal before any sweep: a cap of 0 is no failure."""
        monkeypatch.setattr(la, "_JACOBI_MAX_SWEEPS", 0)
        u, s, v = la.svd(np.ones((2, 2)))
        assert s == pytest.approx([2.0, 0.0], abs=1e-15)
        assert np.allclose((u * s) @ v.conj().T, np.ones((2, 2)), atol=1e-15)


def assert_valid_svd(a, factors=None):
    """svd(a), or the given factors of a, reconstructs a, has orthonormal
    factors and descending values, and matches LAPACK on a divided by its
    largest entry (so the reference squares nothing out of range)."""
    u, s, v = la.svd(a) if factors is None else factors
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

    @given(shapes, st.sampled_from(["full", "deficient", "graded"]), exponents, seeds)
    @example((9, 9), "graded", 300, 0)
    @example((2, 9), "deficient", -300, 1)
    @settings(max_examples=150, deadline=None)
    def test_warm_and_cold_starts_agree(self, shape, kind, exponent, seed):
        """The sweeps decide every singular value; LAPACK's left factor only
        picks where they start.  Every singular value of the input agrees
        with the cold start's to 1e-13 relative (the worst of 15,000
        inputs drawn alike was 3.3e-15): for rank-deficient input the
        leading rank values, for graded columns those above 1e-140 of the
        largest.  Within 10^7 of _JACOBI_FLOOR the cold start itself loses
        digits to subnormal inner products (up to 8e-5 against a 400-digit
        reference, where the warm start kept 5e-16)."""
        rows, cols = shape
        rng = np.random.default_rng(seed)
        rank = min(shape)
        if kind == "deficient":
            rank = int(rng.integers(1, max(1, rank - 1) + 1))
            a = with_spectrum(rng, rows, cols, rng.uniform(0.1, 1.0, rank))
        else:
            a = random_complex(rng, shape)
            if kind == "graded":
                a *= 10.0 ** np.concatenate([[0.0], rng.uniform(-300, 0, cols - 1)])
        a *= 10.0**exponent
        s, cold = la.svd(a)[1], cold_svd(a)[1]
        keep = cold / cold[0] >= 1e-140
        keep[rank:] = False
        assert keep[0] and np.all(s[keep] > 0.0)
        assert np.all(np.abs(s - cold)[keep] <= 1e-13 * cold[keep])

    @pytest.mark.parametrize("shape", [(64, 64), (16, 64), (64, 16), (33, 20), (8, 8)])
    def test_warm_start_settles_random_input_within_three_sweeps(self, monkeypatch, shape):
        """From LAPACK's left factor, these random inputs pass the Gram test
        before any sweep; from I they take 5 to 8 sweeps, so the same cap
        stops the cold start."""
        monkeypatch.setattr(la, "_JACOBI_MAX_SWEEPS", 3)
        a = random_complex(np.random.default_rng(sum(shape)), shape)
        assert_valid_svd(a)
        with pytest.raises(la.ConvergenceError):
            cold_svd(a)

    @pytest.mark.parametrize("shape, rank, seed", [((64, 64), 64, 5), ((64, 16), 4, 1), ((16, 16), 3, 0), ((8, 8), 1, 0)])
    def test_gram_exit_settles_the_warm_start_without_a_sweep(self, monkeypatch, shape, rank, seed):
        """R^dagger v0 of these inputs, v0 LAPACK's left factor of R, passes
        the Gram test before any sweep, so a cap of 0 is no failure.  LAPACK's
        factor settles most such inputs, not all (of seeds 0-39: 15 random
        64x64, 21 64x16 rank 4, 27 16x16 rank 3, 38 8x8 rank 1); from the
        right factor of R^dagger these took 2, 8, 7 and 5 sweeps."""
        monkeypatch.setattr(la, "_JACOBI_MAX_SWEEPS", 0)
        rng = np.random.default_rng(seed)
        a = random_complex(rng, shape) if rank == min(shape) else with_spectrum(rng, *shape, rng.uniform(0.1, 1.0, rank))
        assert_valid_svd(a)

    @pytest.mark.parametrize("seed", range(4))
    def test_gram_exit_gives_the_bits_of_the_confirming_sweep(self, monkeypatch, seed):
        """With the Gram exit off (_off_diagonal patched to inf), the sweeps
        run until one rotates nothing.  Random, rank-deficient and graded
        inputs on both sides of LAPACK's 25-column switch come out bit for
        bit as with the exit on.  The Gram product and a round's vecdot can
        round apart on a pair right at _JACOBI_TOL: 2 of 1,500 seeded inputs
        of these kinds, up to 48 columns, differed in some bit of a factor,
        with no singular value above 1e-13 of the largest moved."""
        rng = np.random.default_rng(seed)
        inputs = [random_complex(rng, (rows, cols)) for rows, cols in rng.integers(1, 41, size=(4, 2))]
        for rows, cols in rng.integers(2, 41, size=(4, 2)):
            inputs.append(with_spectrum(rng, rows, cols, rng.uniform(0.1, 1.0, int(rng.integers(1, min(rows, cols))))))
        for cols in rng.integers(2, 33, size=2):
            inputs.append(random_complex(rng, (cols, cols)) * 10.0 ** rng.uniform(-300, 0, cols))
        want = [la.svd(a) for a in inputs]
        monkeypatch.setattr(la, "_off_diagonal", lambda w: np.inf)
        for a, w in zip(inputs, want):
            assert all(same_bits(g, x) for g, x in zip(la.svd(a), w))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_round_robin_covers_each_pair_once_per_sweep(self, n):
        rounds = la._round_pairs(n)
        assert len(rounds) == n - 1 + n % 2
        assert la._round_pairs(1) == ()
        seen = []
        for pairs in rounds:
            assert not pairs.flags.writeable
            i, j = pairs.T
            assert len(i) == len(j) == n // 2
            assert np.all(i < j)
            assert len(set(i.tolist() + j.tolist())) == 2 * len(i)
            seen += zip(i.tolist(), j.tolist())
        assert sorted(seen) == list(itertools.combinations(range(n), 2))

    def test_convergence_error_carries_figures(self, monkeypatch):
        monkeypatch.setattr(la, "_JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(la.ConvergenceError, match="converge") as err:
            la.svd(sorted_rank_one(32, 3))
        assert err.value.sweeps == 1
        assert la._JACOBI_TOL < err.value.off_diagonal < 1.0
        assert f"{err.value.off_diagonal:.3e}" in str(err.value)
        monkeypatch.setattr(la, "_JACOBI_MAX_SWEEPS", 0)
        with pytest.raises(la.ConvergenceError) as err:
            la.svd(RANK_ONE_32)
        assert err.value.sweeps == 0
        r = np.linalg.qr(RANK_ONE_32)[1]
        assert err.value.off_diagonal == la._off_diagonal(r.conj().T @ np.linalg.svd(r)[0])
        assert la._JACOBI_TOL < err.value.off_diagonal <= 1.0
        assert f"{err.value.off_diagonal:.3e}" in str(err.value)

    @pytest.mark.parametrize("n", [1, 2, 8, 17, 63])
    def test_settled_pair_is_left_exactly_as_it_was(self, n):
        """A leading 1 beside a small random block B / (4n): column 0 is
        orthogonal to all others from the start, so every round must leave
        it bit for bit, not rotate it by a near-identity."""
        a = np.zeros((n + 1, n + 1), dtype=complex)
        a[0, 0] = 1.0
        a[1:, 1:] = random_complex(np.random.default_rng(n), (n, n)) / (4 * n)
        u, s, v = la.svd(a)
        e0 = np.eye(n + 1)[:, 0]
        assert s[0] == 1.0
        assert np.array_equal(np.abs(u[:, 0]), e0) and np.array_equal(np.abs(v[:, 0]), e0)

    @pytest.mark.parametrize(
        "shape, rank", [((17, 17), 17), ((33, 20), 20), ((20, 33), 20), ((64, 64), 64), ((64, 64), 6), ((64, 16), 4)]
    )
    def test_sizes_beyond_the_property_shapes(self, shape, rank):
        """Odd column counts (a phantom column in each round), both
        orientations and up to 32 pairs a round, at full and low rank."""
        rng = np.random.default_rng(sum(shape) + rank)
        assert_valid_svd(with_spectrum(rng, *shape, rng.uniform(0.1, 1.0, rank)))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [8, 32])
def test_svd_relative_accuracy_on_two_sided_graded_input(n, seed):
    """Why the Jacobi SVD stays: on D1 B D2, with B standard normal, rows
    graded 1 ... 1e-14 and the same grades permuted on the columns, every
    singular value is accurate to 1e-11 relative to a 40-digit reference.
    LAPACK's bidiagonalizing SVD (np.linalg.svd) loses most of the digits of
    the small ones on such input."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    grades = np.logspace(0, -14, n)
    a = grades[:, None] * rng.standard_normal((n, n)) * rng.permutation(grades)
    with mpmath.workdps(40):
        ref = sorted((float(x) for x in mpmath.svd_r(mpmath.matrix(a.tolist()), compute_uv=False)), reverse=True)
    _, s, _ = la.svd(a)
    assert np.all(np.abs(s - ref) <= 1e-11 * np.array(ref))


def mp_singular_values(a):
    """a's singular values, descending, from a 40-digit mpmath SVD."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return np.array(sorted((float(x) for x in mpmath.svd_r(mpmath.matrix(a.tolist()), compute_uv=False)), reverse=True))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shape", [(24, 24), (32, 12)])
def test_svd_relative_accuracy_on_row_graded_input_in_any_row_order(shape, seed):
    """D B with B standard normal and D grading the rows 1 ... 1e-14 (the
    rows beyond the column count at 1e-14) in permuted order: every singular
    value is accurate to 1e-11 relative.  This needs the row sort before the
    QR; without it the worst error was 5e-6 to 1e-3 on these inputs."""
    rows, cols = shape
    rng = np.random.default_rng(seed)
    grades = np.concatenate([np.logspace(0, -14, cols), np.full(rows - cols, 1e-14)])
    a = rng.permutation(grades)[:, None] * rng.standard_normal(shape)
    ref = mp_singular_values(a)
    _, s, _ = la.svd(a)
    assert np.all(np.abs(s - ref) <= 1e-11 * ref)


@pytest.mark.parametrize("seed", range(3))
def test_svd_on_two_sided_graded_input_within_ten_sweeps(monkeypatch, seed):
    """On 32x32 D1 B D2 with both gradings permuted, the sorted QR leaves
    an R^dagger that 5 sweeps orthogonalize, accurate to 1e-11 relative.
    This needs the column sort before the QR; without it, as without the QR,
    it took 19-24 sweeps."""
    monkeypatch.setattr(la, "_JACOBI_MAX_SWEEPS", 10)
    rng = np.random.default_rng(seed)
    grades = np.logspace(0, -14, 32)
    a = rng.permutation(grades)[:, None] * rng.standard_normal((32, 32)) * rng.permutation(grades)
    ref = mp_singular_values(a)
    _, s, _ = la.svd(a)
    assert np.all(np.abs(s - ref) <= 1e-11 * ref)


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
        """Eigenphases theta and -theta share a cosine, so the Hermitian
        part alone cannot split them."""
        rng = np.random.default_rng(17)
        for theta in [0.4, 1e-4, np.pi - 1e-5, np.pi / 2]:
            q = random_unitary(rng, 2)
            u = q @ np.diag([np.exp(1j * theta), np.exp(-1j * theta)]) @ q.conj().T
            w = la.principal_unitary_sqrt(u)
            assert np.linalg.norm(w @ w - u) <= 1e-9

    def test_close_phases_near_half_pi(self):
        """Two eigenphases 5e-8 apart at pi/2, where the sine is flat."""
        q = np.fft.fft(np.eye(8)) / np.sqrt(8)
        theta = np.linspace(-2.5, 2.9, 8)
        theta[:2] = np.pi / 2, np.pi / 2 + 5e-8
        u = (q * np.exp(1j * theta)) @ q.conj().T
        w = la.principal_unitary_sqrt(u)
        assert np.linalg.norm(w @ w - u) <= 1e-12

    @given(
        st.integers(2, 8),
        st.sampled_from([np.pi / 2, -np.pi / 2, 0.0, 1.0, 2.5, np.pi - 1e-3])
        | st.floats(-np.pi + 1e-3, np.pi - 1e-3),
        st.floats(-10, -5),
        st.booleans(),
        seeds,
    )
    @settings(max_examples=200, deadline=None)
    def test_clustered_eigenphases(self, n, base, gap_exp, partner, seed):
        """A second eigenphase 1e-10..1e-5 above base, sometimes with a
        -base partner: the root matches Q e^{i theta/2} Q^dagger."""
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-np.pi + 0.01, np.pi - 0.01, n)
        theta[:2] = base, base + 10.0**gap_exp
        if partner and n > 2:
            theta[2] = -base
        q = random_unitary(rng, n)
        u = (q * np.exp(1j * theta)) @ q.conj().T
        w = la.principal_unitary_sqrt(u)
        assert np.linalg.norm(w - (q * np.exp(0.5j * theta)) @ q.conj().T) <= 1e-11
        assert np.linalg.norm(w @ w - u) <= 1e-12

    def test_near_unitary_squares_back(self):
        """An input 5e-10 off unitary, inside the default tol, squares back
        to within a few times that."""
        rng = np.random.default_rng(5)
        u = random_unitary(rng, 16)
        e = random_complex(rng, (16, 16))
        u = u + 5e-10 * e / np.linalg.norm(e)
        assert 1e-10 < la._unitarity_residual(u) <= 1e-9
        w = la.principal_unitary_sqrt(u)
        assert np.linalg.norm(w @ w - u) <= 2e-9

    def test_column_major_input(self):
        """A Fortran-ordered or transposed input gives the same root as its
        row-major copy."""
        rng = np.random.default_rng(23)
        for u in [X, random_unitary(rng, 5)]:
            for v in [np.asfortranarray(u), u.T]:
                expected = la.principal_unitary_sqrt(np.ascontiguousarray(v))
                got = la.principal_unitary_sqrt(v)
                assert np.linalg.norm(got - expected) <= 1e-13
                assert np.linalg.norm(got @ got - v) <= 1e-13

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            la.principal_unitary_sqrt(np.array([[1, 1], [0, 1]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            la.principal_unitary_sqrt(np.ones((2, 3)))


def permutation_matrix(p):
    """eye(n)[:, p]: column j has its 1 in row p[j]."""
    return np.eye(len(p), dtype=complex)[:, p]


def split_matrix(n, lone, rows, cols, kind, exponent, layout, seed):
    """2**exponent times a random row and column permutation of
    block-diag(M, D, 0): M a lone-by-lone diagonal of `kind` ("one": exactly
    1, "unit": exactly 1, -1, i or -i, "phase": e^{i theta}, "modulus": a
    modulus in [0.5, 0.99] or [1.01, 2] times a phase), D a rows x cols
    complex Gaussian block, and zero rows and columns for the rest of n.
    Laid out in C or F order, as a transposed view ("T") or as a view with
    a column stride of two ("strided")."""
    rng = np.random.default_rng(seed)
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, lone))
    values = {
        "one": np.ones(lone),
        "unit": rng.choice(np.array([1, -1, 1j, -1j]), lone),
        "phase": phase,
        "modulus": rng.uniform(1.01, 2.0, lone) ** rng.choice([-1.0, 1.0], lone) * phase,
    }[kind]
    m = np.zeros((n, n), dtype=complex)
    m[np.arange(lone), np.arange(lone)] = values
    m[lone : lone + rows, lone : lone + cols] = random_complex(rng, (rows, cols)) / math.sqrt(max(rows, 1))
    m = m[rng.permutation(n)][:, rng.permutation(n)] * 2.0**exponent
    if layout == "F":
        return np.asfortranarray(m)
    if layout == "T":
        return m.T
    if layout == "strided":
        return np.repeat(m, 2, axis=1)[:, ::2]
    return m


@st.composite
def split_specs(draw):
    n = draw(st.integers(1, 130))
    lone = draw(st.integers(0, n))
    rows, cols = draw(st.integers(0, n - lone)), draw(st.integers(0, n - lone))
    kind = draw(st.sampled_from(["one", "unit", "phase", "modulus"]))
    exponent = draw(st.sampled_from([0, 250, -250]))
    layout = draw(st.sampled_from(["C", "F", "T", "strided"]))
    return n, lone, rows, cols, kind, exponent, layout, draw(seeds)


class TestPermutation:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 65])
    def test_one_line_map(self, n):
        p = np.random.default_rng(n).permutation(n)
        m = permutation_matrix(p)
        for v in [m, np.asfortranarray(m)]:
            assert np.array_equal(la._permutation(v), p)
        assert np.array_equal(la._permutation(m.T), np.argsort(p))

    @pytest.mark.parametrize(
        "entry,value",
        [((0, 1), 1 + 1e-16j), ((0, 1), -1.0), ((0, 1), 1 - 1e-16), ((2, 2), 1.0), ((2, 2), 1e-300)],
    )
    def test_near_misses(self, entry, value):
        """Not exactly one 1 per row and column: a complex or negative
        entry, a rounded 1, or an extra nonzero entry."""
        m = permutation_matrix([1, 0, 3, 2])
        m[entry] = value
        for v in [m, np.asfortranarray(m)]:
            assert la._permutation(v) is None

    def test_repeated_row(self):
        """n ones, one per column, but two in row 0 and none in row 3."""
        m = permutation_matrix([1, 0, 3, 2])
        m[3, 2], m[0, 2] = 0.0, 1.0
        for v in [m, np.asfortranarray(m), m.T, np.asfortranarray(m.T)]:
            assert np.count_nonzero(v) == 4 and la._permutation(v) is None

    def test_dense_and_zero(self):
        assert la._permutation(H) is None
        assert la._permutation(np.zeros((3, 3), dtype=complex)) is None
        assert la._permutation(np.ones((1, 1), dtype=complex) * 1j) is None

    @given(split_specs())
    @example((130, 130, 0, 0, "one", 0, "strided", 0))
    @example((64, 64, 0, 0, "one", 0, "T", 1))
    @example((64, 64, 0, 0, "unit", 0, "F", 2))
    @example((64, 63, 1, 1, "one", 0, "C", 3))
    @example((64, 63, 1, 0, "one", 0, "C", 4))
    @settings(max_examples=200, deadline=None)
    def test_split_matrices(self, spec):
        """In any memory layout, the map exists exactly when every column
        holds one nonzero entry, exactly 1, that is alone in its row too."""
        a = split_matrix(*spec)
        nz = a != 0
        lone = (nz.sum(0) == 1).all() and (nz.sum(1) == 1).all() and (a[nz] == 1).all()
        p = la._permutation(a)
        assert (p is not None) == lone
        if lone:
            assert np.array_equal(permutation_matrix(p), a)

    def test_residual_of_a_permutation_is_exactly_zero(self):
        m = permutation_matrix(np.random.default_rng(3).permutation(130))
        assert la._unitarity_residual(m) == 0.0 and la.is_unitary(m, 0.0)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("exponent", [0, 250, -250])
    def test_residual_in_strips(self, n, exponent):
        """The upper block triangle of the Gram matrix, _GRAM_STRIP columns
        at a time, gives the residual of the whole one, at any scale."""
        rng = np.random.default_rng(n)
        a = random_unitary(rng, n) + 1e-3 * random_complex(rng, (n, n))
        expected = np.linalg.norm(a.conj().T @ a - 4.0**-exponent * np.eye(n)) * 4.0**exponent
        assert la._unitarity_residual(a * 2.0**exponent) == pytest.approx(expected, rel=1e-12)


class TestUnitarityResidual:
    @given(split_specs())
    @example((130, 130, 0, 0, "one", 0, "F", 0))
    @example((129, 129, 0, 0, "unit", 0, "T", 1))
    @example((130, 0, 130, 130, "one", 0, "C", 2))
    @example((130, 60, 70, 66, "modulus", 250, "strided", 3))
    @example((130, 40, 1, 80, "phase", -250, "C", 4))
    @example((9, 4, 1, 5, "unit", 0, "F", 5))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_whole_gram_matrix(self, spec):
        """Lone columns split off and the rest in half strips give
        ||a^dagger a - I||_F of the whole Gram matrix, at any scale and
        memory layout, and exactly 0 for an exact permutation (entries 1,
        or 1, -1, i, -i, with nothing else in the matrix)."""
        n, lone, rows, cols, kind, exponent, _, _ = spec
        a = split_matrix(*spec)
        got = la._unitarity_residual(a)
        b = a * 2.0**-exponent
        expected = np.linalg.norm(b.conj().T @ b - 4.0**-exponent * np.eye(n)) * 4.0**exponent
        if lone == n and kind in ("one", "unit") and exponent == 0:
            assert got == 0.0
        # An entry e^{i theta} has modulus 1 only to a unit of roundoff, and
        # (|v|^2 - 1)^2 is taken from one entry here and from a sum there.
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-13)

    def test_holds_no_matrix_sized_temporary(self):
        """On 1024 x 1024 inputs (16 MiB) is_unitary peaks below 3/8 of one
        matrix: a mask of nonzeros (1/16), strips of 64 columns, and no
        abs(a) (1/2), for a dense unitary and for a permutation with one
        dense column, which has no lone column."""
        rng = np.random.default_rng(8)
        dense = functools.reduce(np.kron, [random_unitary(rng, 4) for _ in range(5)])
        mixed = permutation_matrix(rng.permutation(1024))
        mixed[:, 5] = random_unitary(rng, 1024)[:, 0]
        for m, unitary in [(dense, True), (mixed, False)]:
            tracemalloc.start()
            try:
                assert la.is_unitary(m, 1e-9) == unitary
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 0.375 * m.nbytes


def closed_form_cycle_root(length):
    """Column 0 of the root of the length-cycle shift, in 40 digits: the
    geometric sum (1/L) sum_k q^k over k in (-L/2, L/2], q = e^{i pi (1 -
    2m) / L}, which never equals 1."""
    mpmath = pytest.importorskip("mpmath")
    lo, hi = -((length - 1) // 2), length // 2
    out = []
    with mpmath.workdps(40):
        for m in range(length):
            q = mpmath.expjpi(mpmath.mpf(1 - 2 * m) / length)
            out.append(complex((q ** (hi + 1) - q**lo) / (q - 1) / length))
    return np.array(out)


class TestPermutationSqrt:
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 8, 31, 64, 255, 256])
    def test_cycle_block_matches_closed_form(self, length):
        r = la._cycle_root_column(length)
        assert np.abs(r - closed_form_cycle_root(length)).max() <= 1e-15
        assert not r.flags.writeable

    def test_two_cycle_block_is_exact(self):
        assert np.array_equal(la._cycle_root_column(2), [(1 + 1j) / 2, (1 - 1j) / 2])
        assert np.array_equal(la.principal_unitary_sqrt(X), 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_eigen_route(self, seed, monkeypatch):
        """On permutations of n <= 256 the cycle route squares back to 1e-14
        and agrees with the eigen route to 1e-13, entrywise; the eigen
        route's own entries are off by up to about 7e-14 there."""
        rng = np.random.default_rng(seed)
        n = 256 if seed % 2 else int(rng.integers(1, 257))
        cases = [rng.permutation(n), np.roll(np.arange(n), 1), np.arange(n) ^ 1 if n % 2 == 0 else np.arange(n)]
        for p in cases:
            m = permutation_matrix(p)
            w = la.principal_unitary_sqrt(m)
            assert np.abs(w @ w - m).max() <= 1e-14
            with monkeypatch.context() as patch:
                patch.setattr(la, "_permutation", lambda a, split=None: None)
                eigen = la.principal_unitary_sqrt(m)
            assert np.abs(w - eigen).max() <= 1e-13

    @given(st.permutations(range(12)) | st.integers(1, 40).flatmap(lambda n: st.permutations(range(n))))
    @example([0, 4, 6, 3, 1, 8, 7, 2, 5, 10, 11, 9])
    @settings(max_examples=100, deadline=None)
    def test_matches_cycle_by_cycle_loop(self, p):
        """The vectorized scatter equals a loop that walks each cycle from
        its least element and writes its block entry by entry."""
        p = np.array(p)
        expected = np.zeros((len(p), len(p)), dtype=complex)
        seen = set()
        for start in range(len(p)):
            if start in seen:
                continue
            cycle = [start]
            while p[cycle[-1]] != start:
                cycle.append(int(p[cycle[-1]]))
            seen.update(cycle)
            r = la._cycle_root_column(len(cycle))
            for a, i in enumerate(cycle):
                for b, j in enumerate(cycle):
                    expected[i, j] = r[(a - b) % len(cycle)]
        assert np.array_equal(la.principal_unitary_sqrt(permutation_matrix(p)), expected)

    def test_frame_route_peaks_at_three_matrices(self):
        """The root of a synthesized pauli n=4 gate (256 x 256, 1 MiB) as
        W sqrt(P) W^dagger peaks below 2.1 matrices: the contraction holds
        its operand, sqrt(P), or a partial product, and the next partial
        product, and nothing rebuilds or splits the gate.  The eigen route,
        taken on a copy, holds about 7."""
        from qlift import encodings as en
        from qlift import synthesis as sy

        image = np.random.default_rng(4).permutation(16)
        u = sy.quantize_reversible(sy.ClassicalFunction._from_image(4, 4, image), en.builtin_encoding("pauli")).matrix
        peaks = []
        for m in (u, u.copy()):
            tracemalloc.start()
            try:
                la.principal_unitary_sqrt(m)
                peaks.append(tracemalloc.get_traced_memory()[1] / u.nbytes)
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 2.1 < 6.5 <= peaks[1]


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

    @pytest.mark.parametrize(
        "reshape",
        [la.unres, lambda v, r, c: la.matrix_to_tensor(np.eye(4), r, c)],
        ids=["unres", "matrix_to_tensor"],
    )
    @pytest.mark.parametrize(
        "rows,cols,message",
        [
            (2.0, 2, "matrix dimension must be an integer, got 2.0"),
            (2, "2", "matrix dimension must be an integer, got '2'"),
            (-2, -2, "matrix dimensions must be positive, got -2 x -2"),
            (4, 0, "matrix dimensions must be positive, got 4 x 0"),
        ],
    )
    def test_counts_checked(self, reshape, rows, cols, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reshape(np.arange(4), rows, cols)


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

    def test_contraction_inside_the_range_is_not_scaled(self):
        """The identity gate returns a state spanning both extremes as it is."""
        x = [[1e300, 1e-300]]
        got = la.tensor_apply(la.matrix_to_tensor(np.eye(2), 1, 2), x)
        assert same_bits(got, np.array(x, dtype=complex))

    def test_zero_tensor(self):
        out = la.tensor_apply(np.zeros((2, 2, 4)), np.array([[1, 2], [3, 4]]))
        assert np.array_equal(out, np.zeros((2, 2), dtype=complex))

    def test_matches_matrix_route(self):
        """A rows x cols state takes cols x rows slices."""
        rng = np.random.default_rng(23)
        for rows, cols in [(2, 2)] * 20 + [(2, 3), (3, 1)] * 5:
            t = random_complex(rng, (cols, rows, rows * cols))
            x = random_complex(rng, (rows, cols))
            g = la.tensor_to_matrix(t)
            lhs = la.tensor_apply(t, x)
            rhs = la.unres(g @ la.res(x), rows, cols)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_matrix_tensor_round_trip(self):
        """matrix_to_tensor builds the slices of a rows x cols state, so its
        trace action is g @ res(x)."""
        rng = np.random.default_rng(29)
        for rows, cols in [(2, 2), (2, 3), (3, 1)]:
            g = random_complex(rng, (rows * cols, rows * cols))
            t = la.matrix_to_tensor(g, rows, cols)
            assert t.shape == (cols, rows, rows * cols)
            assert np.array_equal(la.tensor_to_matrix(t), g)
            x = random_complex(rng, (rows, cols))
            want = la.unres(g @ la.res(x), rows, cols)
            assert np.linalg.norm(la.tensor_apply(t, x) - want) <= 1e-12 * np.linalg.norm(want)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            la.tensor_apply(np.zeros((2, 2, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            la.tensor_apply(np.zeros((2, 2, 4)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match=r"slices \(1, 2\) do not act on a state of shape \(1, 2\)"):
            la.tensor_apply(np.arange(1, 5).reshape(1, 2, 2), [[1, 10]])
        with pytest.raises(ValueError, match="cannot act on 2x3 states"):
            la.matrix_to_tensor(np.eye(4), 2, 3)


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

    def test_zero_b(self):
        zero = np.zeros((2, 2))
        assert la.equal_up_to_phase(zero, zero, 0.0) == 1.0
        assert la.equal_up_to_phase(X, zero, 1e-9) is None

    def test_tiny_difference_is_not_equality(self):
        a = np.array([[1.0, 1e-170], [0.0, 1.0]])
        assert la.equal_up_to_phase(a, np.eye(2), 0.0) is None
        assert la.equal_up_to_phase(a, np.eye(2), 1e-160) == 1.0

    def test_phase_between_the_entries_phases(self):
        """No entry of b carries the best phase e^{i 5e-4}; it leaves
        ||a - phi b|| / ||b|| = 5.0e-4."""
        a = np.array([[np.exp(1e-3j), 1.0]])
        phase = la.equal_up_to_phase(a, np.array([[1.0, 1.0]]), 6e-4)
        assert phase is not None and abs(phase - np.exp(5e-4j)) < 1e-15

    def test_phase_when_the_largest_entry_of_a_is_zero(self):
        """a is zero at b's largest entry, yet phi = 1 leaves a relative
        distance of 1 / sqrt(1 + 0.99**2) = 0.71."""
        assert la.equal_up_to_phase(np.array([[0.0, 0.99]]), np.array([[1.0, 0.99]]), 0.8) == 1.0

    @given(
        st.integers(1, 4),
        st.floats(-np.pi, np.pi),
        st.integers(-4, 0),
        st.floats(0.5, 2.0),
        exponents,
        seeds,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_closed_form_minimum(self, n, phi, spread, ratio, exponent, seed):
        """min over phi of ||a - e^{i phi} b|| is sqrt(||a||^2 + ||b||^2 -
        2|<b, a>|); a phase comes back iff that is at most tol*||b||.  tol is
        drawn around the minimum; draws within rounding of it are skipped."""
        rng = np.random.default_rng(seed)
        b = random_complex(rng, (n, n))
        a = np.exp(1j * phi) * b + 10.0**spread * random_complex(rng, (n, n))
        na2, nb2 = np.linalg.norm(a) ** 2, np.linalg.norm(b) ** 2
        best2 = na2 + nb2 - 2.0 * abs(np.vdot(b, a))
        tol = ratio * math.sqrt(max(best2, 0.0) / nb2)
        assume(abs(best2 - tol * tol * nb2) > 1e-12 * (na2 + nb2))
        scale = 10.0**exponent
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = la.equal_up_to_phase(a * scale, b * scale, tol)
        assert (got is not None) == (best2 <= tol * tol * nb2)
        if got is not None:
            assert abs(abs(got) - 1.0) < 1e-15
            assert np.linalg.norm(a - got * b) <= tol * math.sqrt(nb2) * (1 + 1e-12)

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


class TestAsArray:
    @pytest.mark.parametrize("shape", [(1, 3), (3, 1)])
    def test_single_row_or_column_matrix_is_a_vector(self, shape):
        got = la.as_array(np.arange(1, 4).reshape(shape), 1)
        assert got.shape == (3,) and np.array_equal(got, [1, 2, 3])

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("bad", [complex(x, 0) for x in (np.nan, np.inf, -np.inf)]
                             + [complex(0, x) for x in (np.nan, np.inf, -np.inf)])
    def test_non_finite_entry_rejected_in_any_layout(self, bad, layout):
        """A NaN or Inf in the real or the imaginary part, in a C-ordered,
        Fortran-ordered or strided complex array, gives the one message."""
        rng = np.random.default_rng(30)
        m = random_complex(rng, (5, 6))
        m[3, 4] = bad
        if layout == "F":
            m = np.asfortranarray(m)
        elif layout == "strided":
            m = np.repeat(m, 2, axis=1)[:, ::2]
        assert m.flags.c_contiguous == (layout == "C")
        with pytest.raises(ValueError, match=r"^matrix contains NaN or Inf entries$"):
            la.as_array(m, 2)
        with pytest.raises(ValueError, match=r"^vector contains NaN or Inf entries$"):
            la.as_array(m[3], 1)
        with pytest.raises(ValueError, match=r"^tensor contains NaN or Inf entries$"):
            la.as_array(m[:, :, None], 3)


class TestFrozen:
    def test_keeps_arrays_over_immutable_bytes_uncopied(self):
        """No numpy call can make an array over bytes, or a view of one,
        writeable again, so its identity proves its bits."""
        flat = np.frombuffer(np.arange(4, dtype=np.complex128).tobytes(), np.complex128)
        for a in (flat, flat.reshape(2, 2), flat.reshape(2, 2).T, flat[::2]):
            assert la._frozen(a) is a

    def test_copies_what_could_be_written(self):
        """A writeable array, a read-only view of one and a read-only array
        over a bytearray are copied, and the copy is read-only."""
        owned = np.arange(4, dtype=np.complex128).reshape(2, 2)
        view = owned.view()
        view.setflags(write=False)
        over_bytearray = np.frombuffer(bytearray(owned.tobytes()), np.complex128)
        over_bytearray.setflags(write=False)
        for a in (owned, view, over_bytearray):
            got = la._frozen(a)
            assert got is not a and not got.flags.writeable and np.array_equal(got, a)
            assert got.flags.owndata
        read_only = owned.copy()
        read_only.setflags(write=False)
        assert la._frozen(read_only) is read_only


def reference_lone_entries(a):
    """The lone-entry rule as first written: int64 counts of the nonzero
    mask, multiplied."""
    nz = a != 0
    col = nz.argmax(1)
    rows = np.flatnonzero(nz.sum(1) * nz.sum(0)[col] == 1)
    return rows, col[rows]


def assert_same_lone_entries(a):
    got, want = la._lone_entries(a), reference_lone_entries(a)
    assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


class TestLoneEntries:
    @given(st.integers(1, 40), st.integers(1, 40), st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]),
           st.sampled_from([0.0, 0.3]), st.integers(0, 2**32 - 1))
    @example(40, 40, 0.02, 0.3, 0)
    @example(1, 40, 1.0, 0.0, 1)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_reference(self, rows, cols, density, empty, seed):
        """Random sparse and dense patterns, some rows emptied, on square
        and rectangular shapes."""
        rng = np.random.default_rng(seed)
        a = np.where(rng.random((rows, cols)) < density, random_complex(rng, (rows, cols)), 0)
        a[rng.random(rows) < empty] = 0
        assert_same_lone_entries(a)
        assert_same_lone_entries(np.asfortranarray(a))

    @pytest.mark.parametrize(
        "shape", [(255, 255), (256, 256), (257, 257), (255, 3), (3, 256), (256, 1), (1, 256), (300, 256)]
    )
    def test_at_the_narrow_count_boundary(self, shape):
        """Counts up to 255 fit uint8 and 256 needs uint16 (a count of 257
        would wrap to 1 in uint8): a full row and a full column next to
        lone entries."""
        rows, cols = shape
        rng = np.random.default_rng(rows * 1000 + cols)
        a = np.zeros(shape, dtype=complex)
        k = min(shape)
        a[rng.permutation(rows)[:k], rng.permutation(cols)[:k]] = 1.0
        assert_same_lone_entries(a)
        a[0] = 1.0
        assert_same_lone_entries(a)
        a[:, -1] = 1j
        assert_same_lone_entries(a)

    def test_counts_are_not_multiplied_in_the_narrow_type(self):
        """Row 0 holds 3 entries and its first column 171: 3 * 171 = 513,
        which is 1 modulo 256, so a uint8 product would call row 0 lone."""
        a = np.zeros((200, 200), dtype=complex)
        a[:171, 0] = 1.0
        a[0, :3] = 1.0
        a[171:, 171:] = np.eye(29)
        rows, cols = la._lone_entries(a)
        assert np.array_equal(rows, np.arange(171, 200)) and np.array_equal(cols, rows)
        assert_same_lone_entries(a)


def assert_same_split(u):
    """_square's split of u is the reference's lone entries of u."""
    got, want = la._square(u, "m")[1], reference_lone_entries(np.asarray(u, dtype=complex))
    assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


class TestSquare:
    """_square coerces, checks and splits a matrix in one strip pass
    (_lone_entries), with as_array's errors in as_array's order, then the
    square check."""

    @pytest.mark.parametrize(
        "u,message",
        [
            (np.ones(3), r"expected a matrix, got shape \(3,\)"),
            (np.ones((2, 2, 2)), r"expected a matrix, got shape \(2, 2, 2\)"),
            (np.zeros((0, 3)), "empty matrix"),
            (np.zeros((0, 0)), "empty matrix"),
            ([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0]], "matrix contains NaN or Inf entries"),
            (np.array([[0.0, 1.0], [1.0, 0.0], [complex(0.0, -np.inf), 0.0]]), "matrix contains NaN or Inf entries"),
            (np.eye(2, 3), r"m: shape \(2, 3\) is not square"),
        ],
        ids=["ndim-1", "ndim-3", "empty", "empty-square", "nan-non-square", "inf-imaginary-non-square", "non-square"],
    )
    def test_error_order(self, u, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            la._square(u, "m")
        if "square" not in message:
            with pytest.raises(ValueError, match=f"^{message}$"):
                la.as_array(u, 2)

    def test_finds_a_nan_in_any_strip_and_layout(self):
        """A 300 x 300 matrix takes three strips; a NaN, in either part, is
        found in the last one, whether the matrix is C- or Fortran-ordered
        or a view that holds it, and a view that skips it passes."""
        a = permutation_matrix(np.random.default_rng(7).permutation(300))
        for bad in (np.nan, complex(0.0, np.nan)):
            b = a.copy()
            b[299, 1] = bad
            for u in (b, np.asfortranarray(b), b[1:, 1:], b.T, b[::-1, ::-1]):
                with pytest.raises(ValueError, match="^matrix contains NaN or Inf entries$"):
                    la._square(u, "m")
            assert_same_split(b[:-1, :-1])
            assert_same_split(b[::2, ::2])

    def test_fortran_and_strided_inputs(self):
        """The split of a Fortran-ordered matrix, of strided and transposed
        views and of real and integer input is the reference's, and the
        coerced matrix is the input's."""
        rng = np.random.default_rng(8)
        a = np.where(rng.random((300, 300)) < 0.004, random_complex(rng, (300, 300)), 0)
        a[rng.permutation(300)[:200], rng.permutation(300)[:200]] = 1.0
        for u in (a, np.asfortranarray(a), a[::2, ::2], a[1::3, 2::3], a.T, a[::-1], a.real, (a != 0).astype(int)):
            got, _ = la._square(u, "m")
            assert got.dtype == np.complex128 and np.array_equal(got, u)
            assert_same_split(u)

    @given(st.integers(1, 40), st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]), st.sampled_from([0.0, 0.3]),
           st.integers(0, 2**32 - 1))
    @example(40, 0.02, 0.3, 0)
    @settings(max_examples=200, deadline=None)
    def test_split_matches_the_reference(self, n, density, empty, seed):
        """TestLoneEntries's random patterns, on square shapes."""
        rng = np.random.default_rng(seed)
        a = np.where(rng.random((n, n)) < density, random_complex(rng, (n, n)), 0)
        a[rng.random(n) < empty] = 0
        assert_same_split(a)
        assert_same_split(np.asfortranarray(a))

    @pytest.mark.parametrize("n", [200, 255, 256, 257])
    def test_split_at_the_narrow_count_boundary(self, n):
        """TestLoneEntries's count boundary and wrapped product, square."""
        rng = np.random.default_rng(n)
        a = np.zeros((n, n), dtype=complex)
        a[rng.permutation(n), rng.permutation(n)] = 1.0
        assert_same_split(a)
        a[0] = 1.0
        assert_same_split(a)
        a[:, -1] = 1j
        assert_same_split(a)
        a[:] = 0.0
        a[:171, 0] = a[0, :3] = 1.0
        assert_same_split(a)


class TestPermutationExit:
    def test_matches_the_full_computation(self, monkeypatch):
        """A permutation matrix's unitarity residual, 0.0 from one gather,
        is the full computation's bit for bit, as with the exit patched
        off; matrices that are not exactly permutations take the full
        computation either way."""
        rng = np.random.default_rng(31)
        perms = [permutation_matrix(rng.permutation(n)) for n in (1, 2, 5, 64, 300)]
        near = perms[3].copy()
        near[near == 1] = [1.0 + 2.0**-52] + [1.0] * 63
        broken = perms[4][:, ::-1].copy()
        broken[0, 0] = 0.5
        cases = perms + [near, 1j * perms[2], -perms[2], 2.0 * perms[2], perms[2] + 1e-3, broken]
        got = [repr(la._unitarity_residual(*la._square(m, "m"))) for m in cases]
        with monkeypatch.context() as patch:
            patch.setattr(la, "_permutation", lambda m, split=None: None)
            full = [repr(la._unitarity_residual(*la._square(m, "m"))) for m in cases]
        assert got == full
        # Unimodular multiples of a permutation give 0.0 from the lone route.
        assert [g == "0.0" for g in got] == [True] * 5 + [False, True, True, False, False, False]


# Powers of two scale exactly, so a result scaled back by 2**-e is comparable
# with the unit-scale reference; 2**±997 spans about 10**±300.
scale_exps = st.integers(-997, 997)
# Below this exponent of the bound on a result's entries, no partial result
# can overflow: a ValueError there would be a false alarm.
_SAFE_EXP = 1022


def range_checked(f, *args):
    """f(*args) with overflow and invalid operations raised as errors, or
    None when f raises ValueError naming the double range."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            return f(*args)
        except ValueError as exc:
            assert "double range" in str(exc)
            return None


def assert_scaled_back(got, e, want, bound, terms, low=None):
    """got * 2**-e matches the unit-scale want to 1e-12 of `bound` (the
    unit-scale bound on the entries), allowing each of `terms` summands per
    entry to have underflowed by 2**-1074 at scale 2**low (default e)."""
    back = np.ldexp(got.real, -e) + 1j * np.ldexp(got.imag, -e)
    assert back.shape == want.shape
    # Past 2**1000 the allowance exceeds any unit-scale entry: all underflowed.
    slack = 1e-12 * bound + terms * math.ldexp(1.0, min(-1073 - (e if low is None else low), 1000))
    assert np.max(np.abs(back - want)) <= slack


class TestScaleSafety:
    """Each routine, with operands scaled anywhere from 10**-300 to 10**300,
    returns the scaled unit-scale answer or raises ValueError naming the
    double range, and only where a result can leave it; no floating-point
    exception escapes."""

    @given(
        st.tuples(small_dims, small_dims), st.tuples(small_dims, small_dims),
        st.booleans(), scale_exps, scale_exps, seeds,
    )
    @example((1, 2), (2, 1), True, 997, 997, 0)
    @settings(max_examples=100, deadline=None)
    def test_kron(self, sa, sb, vectors, p, q, seed):
        rng = np.random.default_rng(seed)
        a, b = random_complex(rng, sa), random_complex(rng, sb)
        if vectors:
            a, b = a.reshape(-1), b.reshape(-1)
        got = range_checked(la.kron, a * 2.0**p, b * 2.0**q)
        bound = np.abs(a).max() * np.abs(b).max()
        if got is None:
            assert math.log2(bound) + p + q > _SAFE_EXP
        else:
            assert_scaled_back(got, p + q, np.kron(a, b), bound, 1)

    @given(st.lists(st.tuples(small_dims, small_dims, scale_exps), min_size=1, max_size=3),
           st.integers(0, 2), scale_exps, seeds)
    @example([(2, 2, 664), (2, 2, 664)], 0, 664, 0)
    @example([(2, 2, -600), (2, 2, 600)], 0, -600, 0)
    @settings(max_examples=100, deadline=None)
    def test_kron_apply(self, factors, rest, p, seed):
        """x scaled by 2**p and each factor by its own 2**q."""
        rng = np.random.default_rng(seed)
        mats = [random_complex(rng, (r, c)) for r, c, _ in factors]
        cols = math.prod(c for _, c, _ in factors)
        x = random_complex(rng, (cols, rest) if rest else (cols,))
        got = range_checked(la.kron_apply, [m * 2.0**q for m, (_, _, q) in zip(mats, factors)], x * 2.0**p)
        dense = functools.reduce(np.kron, mats)
        bound = float(np.max(np.abs(dense) @ np.abs(x)))
        e = p + sum(q for _, _, q in factors)
        if got is None:
            assert math.log2(bound) + e > _SAFE_EXP
        else:
            assert_scaled_back(got, e, dense @ x, bound, 1)

    @given(small_dims, small_dims, scale_exps, scale_exps, seeds)
    @example(2, 2, 997, 997, 0)
    @settings(max_examples=100, deadline=None)
    def test_tensor_apply(self, rows, cols, p, q, seed):
        """A (cols, rows, rows*cols) tensor on a rows x cols state."""
        rng = np.random.default_rng(seed)
        t, x = random_complex(rng, (cols, rows, rows * cols)), random_complex(rng, (rows, cols))
        got = range_checked(la.tensor_apply, t * 2.0**p, x * 2.0**q)
        g = la.tensor_to_matrix(t)
        bound = float(np.max(np.abs(g) @ np.abs(la.res(x))))
        if got is None:
            assert math.log2(bound) + p + q > _SAFE_EXP
        else:
            assert_scaled_back(got, p + q, la.unres(g @ la.res(x), rows, cols), bound, rows * cols)

    @given(small_dims, small_dims, scale_exps, seeds)
    @settings(max_examples=60, deadline=None)
    def test_reshapes_are_exact(self, rows, cols, p, seed):
        rng = np.random.default_rng(seed)
        m = random_complex(rng, (rows, cols)) * 2.0**p
        g = random_complex(rng, (rows * cols, rows * cols)) * 2.0**p
        with np.errstate(over="raise", invalid="raise"):
            assert np.array_equal(la.unres(la.res(m), rows, cols), m)
            assert np.array_equal(la.tensor_to_matrix(la.matrix_to_tensor(g, rows, cols)), g)

    @given(shapes, st.integers(1, 9), st.lists(st.integers(0, 2), min_size=9, max_size=9),
           st.booleans(), exponents, seeds)
    @example((8, 8), 6, [0] * 7 + [1, 0], False, 0, 0)
    @settings(max_examples=100, deadline=None)
    def test_svd_rank_deficient(self, shape, rank, kinds, wide, exponent, seed):
        """Columns past `rank` are zero (kind 0), copies of earlier ones (1)
        or below the Jacobi floor (2), so the basis completion runs; a wide
        input puts it on the v side."""
        rows, cols = max(shape), min(shape)
        rank = min(rank, cols)
        rng = np.random.default_rng(seed)
        a = random_complex(rng, (rows, cols))
        for j in range(rank, cols):
            if kinds[j] == 0:
                a[:, j] = 0.0
            elif kinds[j] == 1:
                a[:, j] = a[:, rng.integers(0, rank)]
            else:
                a[:, j] *= 2.0**-600
        a = (a.conj().T if wide else a) * 10.0**exponent
        with np.errstate(over="raise", invalid="raise"):
            assert_valid_svd(a)
            _, s, _ = la.svd(a)
        assert np.all(s[rank:] <= 1e-13 * s[0])
