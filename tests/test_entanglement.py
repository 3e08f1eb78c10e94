import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlift import encodings as en
from qlift import entanglement as ent
from helpers import random_complex, random_state_vector, random_unitary

PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
QUBIT = en.builtin_encoding("qubit")


class TestCoefficientMatrix:
    def test_bell_state(self):
        m = ent.coefficient_matrix(PSI_PLUS, 2, 2)
        assert np.allclose(m, np.array([[0, 1], [1, 0]]) / np.sqrt(2))

    def test_basis_state(self):
        m = ent.coefficient_matrix(en.encode_bits(QUBIT, "00"), 2, 2)
        assert np.array_equal(m, np.array([[1, 0], [0, 0]], dtype=complex))

    def test_product_with_phase(self):
        v = np.kron([1, 1], [1, -1j]).astype(complex) / 2
        assert np.allclose(ent.coefficient_matrix(v, 2, 2), 0.5 * np.array([[1, -1j], [1, -1j]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="factor"):
            ent.coefficient_matrix(PSI_PLUS, 2, 3)

    @pytest.mark.parametrize("dims", [(-2, -2), (0, 4), (4, -1)])
    def test_non_positive_dims_named(self, dims):
        with pytest.raises(ValueError, match=f"positive, got {dims[0]} x {dims[1]}"):
            ent.coefficient_matrix(PSI_PLUS, *dims)
        with pytest.raises(ValueError, match=f"positive, got {dims[0]} x {dims[1]}"):
            ent.schmidt([1, 0, 0, 1], *dims)


    @pytest.mark.parametrize("dims", [(2.0, 2.0), (2, 2.0), (1.5, 2)])
    def test_non_integer_dims_rejected(self, dims):
        with pytest.raises(ValueError, match="subsystem dimension must be an integer"):
            ent.coefficient_matrix(PSI_PLUS, *dims)
        with pytest.raises(ValueError, match="subsystem dimension must be an integer"):
            ent.schmidt([1, 0, 0, 1], *dims)


class TestSchmidt:
    def test_bell_state(self):
        r = ent.schmidt(PSI_PLUS, 2, 2)
        assert np.allclose(r.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)
        assert r.rank == 2

    def test_basis_state(self):
        r = ent.schmidt(en.encode_bits(QUBIT, "00"), 2, 2)
        assert np.allclose(r.coefficients, [1, 0])
        assert r.rank == 1

    def test_product_states_have_rank_one(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            u = random_state_vector(rng, 3)
            v = random_state_vector(rng, 4)
            r = ent.schmidt(np.kron(u, v), 3, 4)
            assert r.rank == 1

    def test_coefficients_normalized(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            s = random_complex(rng, (12,))  # unnormalized on purpose
            r = ent.schmidt(s, 3, 4)
            assert abs(np.sum(r.coefficients**2) - 1) <= 1e-10

    def test_rank_bounded_by_min_dimension(self):
        rng = np.random.default_rng(71)
        for dims in [(2, 5), (4, 3), (8, 8)]:
            r = ent.schmidt(random_complex(rng, (dims[0] * dims[1],)), *dims)
            assert r.rank <= min(dims)

    def test_reconstruction(self):
        rng = np.random.default_rng(73)
        for da, db in [(2, 2), (3, 5), (8, 8)]:
            s = random_state_vector(rng, da * db)
            r = ent.schmidt(s, da, db)
            assert np.linalg.norm(r.reconstruct() - s) <= 1e-9

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            s = random_state_vector(rng, 12)
            base = ent.schmidt(s, 3, 4).coefficients
            u, v = random_unitary(rng, 3), random_unitary(rng, 4)
            moved = ent.schmidt(np.kron(u, v) @ s, 3, 4).coefficients
            assert np.allclose(base, moved, atol=1e-9)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            ent.schmidt(np.zeros(4), 2, 2)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300, 1.7e308])
    def test_any_scale(self, scale):
        """Extreme amplitudes give the coefficients of the scaled-down state."""
        s = random_state_vector(np.random.default_rng(89), 12)
        want = ent.schmidt(s, 3, 4)
        got = ent.schmidt(s / np.max(np.abs(s)) * scale, 3, 4)
        assert np.allclose(got.coefficients, want.coefficients, rtol=0, atol=1e-13)
        assert got.rank == want.rank

    def test_smallest_subnormal_amplitudes(self):
        got = ent.schmidt(np.array([1, 0, 0, 1j]) * 5e-324, 2, 2)
        assert np.allclose(got.coefficients, [2**-0.5] * 2, rtol=0, atol=1e-15)
        assert got.rank == 2


class TestClassifyBipartite:
    def test_bell_state_entangled(self):
        assert ent.classify_bipartite(PSI_PLUS, 2, 2) is ent.Separability.ENTANGLED

    def test_basis_state_separable(self):
        s = en.encode_bits(QUBIT, "01")
        assert ent.classify_bipartite(s, 2, 2) is ent.Separability.SEPARABLE

    def test_uniform_superposition_separable(self):
        """(|00>+|01>+|10>+|11>)/2 factors as a product of plus states."""
        v = np.full(4, 0.5, dtype=complex)
        assert ent.classify_bipartite(v, 2, 2) is ent.Separability.SEPARABLE

    def test_products_always_separable(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            u = random_complex(rng, (2,))
            v = random_complex(rng, (2,))
            assert ent.classify_bipartite(np.kron(u, v), 2, 2) is ent.Separability.SEPARABLE

    @given(st.integers(2, 8), st.integers(2, 8), st.floats(-1.0, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_schmidt_at_the_rank_threshold(self, dim_a, dim_b, grade, seed):
        """Second Schmidt value within a factor of 10 of RANK_TOL times the
        first: the verdict is the one schmidt's rank gives.  A separate
        values-only sweep rounds differently and could split the two here."""
        rng = np.random.default_rng(seed)
        k = min(dim_a, dim_b)
        spectrum = np.concatenate([[1.0, ent.RANK_TOL * 10.0**grade], ent.RANK_TOL * rng.uniform(0, 0.1, k - 2)])
        m = (random_unitary(rng, dim_a)[:, :k] * spectrum) @ random_unitary(rng, dim_b)[:, :k].conj().T
        s = m.reshape(-1)
        assert ent.classify_bipartite(s, dim_a, dim_b) is ent._separability(ent.schmidt(s, dim_a, dim_b).rank)
