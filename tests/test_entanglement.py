import numpy as np
import pytest

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
