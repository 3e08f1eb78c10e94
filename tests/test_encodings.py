import itertools

import numpy as np
import pytest

from qlift import encodings as en
from qlift.linalg import kron
from helpers import random_complex


@pytest.fixture(params=en.BUILTIN_ENCODINGS)
def encoding(request):
    return en.builtin_encoding(request.param)


class TestBuiltinEncodings:
    def test_invariants(self, encoding):
        """Orthonormality, equal subspace dims, and dimension accounting."""
        d = encoding.ambient_dim
        cols = np.hstack([encoding.basis0, encoding.basis1, encoding.fixed])
        assert cols.shape == (d, d)
        assert np.linalg.norm(cols.conj().T @ cols - np.eye(d)) <= 1e-12
        assert encoding.basis0.shape[1] == encoding.basis1.shape[1]

    def test_exact_orthonormality_except_pauli(self, encoding):
        if encoding.name == "pauli":
            pytest.skip("pauli bases involve 1/sqrt(2)")
        cols = np.hstack([encoding.basis0, encoding.basis1, encoding.fixed])
        assert np.array_equal(cols.conj().T @ cols, np.eye(encoding.ambient_dim).astype(complex))

    def test_qubit(self):
        q = en.builtin_encoding("qubit")
        assert q.ambient_dim == 2
        assert np.array_equal(q.basis0[:, 0], [1, 0])
        assert np.array_equal(q.basis1[:, 0], [0, 1])

    def test_qutrit_fixed_direction(self):
        t = en.builtin_encoding("qutrit")
        assert t.ambient_dim == 3
        assert np.array_equal(t.basis0[:, 0], [1, 0, 0])
        assert np.array_equal(t.basis1[:, 0], [0, 0, 1])
        assert np.array_equal(t.fixed[:, 0], [0, 1, 0])

    def test_matrix2_equals_ququart_subspaces(self):
        """Flattening the matrix-unit spans reproduces the ququart subspaces."""
        assert en.builtin_encoding("matrix2") == en.builtin_encoding("ququart")

    def test_matrix2_basis_is_flattened_matrix_units(self):
        """Oracle: row-major flattening of E11, E22 / E12, E21."""
        from qlift.linalg import res

        e11 = np.array([[1, 0], [0, 0]])
        e22 = np.array([[0, 0], [0, 1]])
        e12 = np.array([[0, 1], [0, 0]])
        e21 = np.array([[0, 0], [1, 0]])
        m2 = en.builtin_encoding("matrix2")
        assert np.array_equal(m2.basis0, np.column_stack([res(e11), res(e22)]))
        assert np.array_equal(m2.basis1, np.column_stack([res(e12), res(e21)]))

    def test_pauli_basis_is_flattened_pauli_spans(self):
        """Oracle: flattened I, X / Y, Z scaled to unit norm."""
        from qlift.linalg import res

        s = 1 / np.sqrt(2)
        eye = np.eye(2)
        x = np.array([[0, 1], [1, 0]])
        y = np.array([[0, -1j], [1j, 0]])
        z = np.array([[1, 0], [0, -1]])
        pl = en.builtin_encoding("pauli")
        assert np.array_equal(pl.basis0, s * np.column_stack([res(eye), res(x)]))
        assert np.array_equal(pl.basis1, s * np.column_stack([res(y), res(z)]))

    def test_pauli_dimensions(self):
        p = en.builtin_encoding("pauli")
        assert p.ambient_dim == 4 and p.bit_dim == 2 and p.fixed.shape[1] == 0

    def test_hash_consistent_with_equality(self):
        assert len({en.builtin_encoding("qubit"), en.builtin_encoding("qubit")}) == 1
        m2, q4 = en.builtin_encoding("matrix2"), en.builtin_encoding("ququart")
        assert m2 == q4 and hash(m2) == hash(q4)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown encoding"):
            en.builtin_encoding("qupent")

    def test_unequal_subspace_dims_rejected(self):
        """The rejected 2-dim/1-dim qutrit assignment cannot be constructed."""
        with pytest.raises(ValueError, match="equal dimension"):
            en.Encoding("bad", 3, [[1, 0, 0], [0, 1, 0]], [[0, 0, 1]])

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            en.Encoding("bad", 2, [[1, 0]], [[1, 1]])

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_non_orthonormal_rejected_at_any_scale(self, scale):
        """frame^dagger frame of a basis vector this far from unit length
        overflows or underflows; the scale-safe residual still rejects it,
        and no RuntimeWarning escapes (warnings are errors in this suite)."""
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            with pytest.raises(ValueError, match="orthonormal"):
                en.Encoding("bad", 2, [[scale, 0]], [[0, 1]])

    def test_incomplete_accounting_rejected(self):
        with pytest.raises(ValueError, match="add up"):
            en.Encoding("bad", 3, [[1, 0, 0]], [[0, 0, 1]])

    @pytest.mark.parametrize(
        "dim,basis0,basis1,match",
        [
            (1, [[1]], [[1]], "ambient dimension must be at least 2"),
            (2, [], [], "at least one-dimensional"),
            (2, [[1, 0, 0]], [[0, 1]], "basis vectors have dimension 3, expected 2"),
        ],
    )
    def test_malformed_encoding_rejected(self, dim, basis0, basis1, match):
        with pytest.raises(ValueError, match=match):
            en.Encoding("bad", dim, basis0, basis1)


class TestEncodeBits:
    def test_two_qubits(self):
        s = en.encode_bits(en.builtin_encoding("qubit"), "01")
        assert np.array_equal(s.amplitudes, [0, 1, 0, 0])

    def test_single_bit(self):
        s = en.encode_bits(en.builtin_encoding("qubit"), "0")
        assert np.array_equal(s.amplitudes, [1, 0])

    def test_ququart_uses_first_basis_vector(self):
        s = en.encode_bits(en.builtin_encoding("ququart"), "1")
        assert np.array_equal(s.amplitudes, [0, 1, 0, 0])

    def test_concatenation_is_kron(self, encoding):
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = "".join(rng.choice(["0", "1"], size=int(rng.integers(1, 3))))
            v = "".join(rng.choice(["0", "1"], size=int(rng.integers(1, 3))))
            combined = en.encode_bits(encoding, u + v).amplitudes
            split = kron(
                en.encode_bits(encoding, u).amplitudes,
                en.encode_bits(encoding, v).amplitudes,
            )
            # float product grouping differs between the two routes
            assert np.allclose(combined, split, atol=1e-15)

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            en.encode_bits(en.builtin_encoding("qubit"), "02")

    @pytest.mark.parametrize("bits", ["", ["0", "1"], 1])
    def test_rejects_empty_and_non_strings(self, bits):
        with pytest.raises(ValueError, match="input must be a nonempty bit string"):
            en.encode_bits(en.builtin_encoding("qubit"), bits)


class TestLogicalSubspace:
    def test_ququart_zero(self):
        cols = en.logical_subspace(en.builtin_encoding("ququart"), "0")
        assert np.array_equal(cols[:, 0], [1, 0, 0, 0])
        assert np.array_equal(cols[:, 1], [0, 0, 0, 1])

    def test_qubit_pair(self):
        cols = en.logical_subspace(en.builtin_encoding("qubit"), "10")
        assert cols.shape == (4, 1)
        assert np.array_equal(cols[:, 0], [0, 0, 1, 0])

    def test_ququart_pair_ordering(self):
        """Kronecker products of the per-bit bases, lexicographic order."""
        cols = en.logical_subspace(en.builtin_encoding("ququart"), "01")
        e = np.eye(4)
        expected = [
            np.kron(e[:, 0], e[:, 1]),
            np.kron(e[:, 0], e[:, 2]),
            np.kron(e[:, 3], e[:, 1]),
            np.kron(e[:, 3], e[:, 2]),
        ]
        assert cols.shape == (16, 4)
        for k, vec in enumerate(expected):
            assert np.array_equal(cols[:, k], vec.astype(complex))

    def test_fixed_complement_dimension(self):
        t = en.builtin_encoding("qutrit")
        assert en.fixed_complement(t, 1).shape == (3, 1)
        assert en.fixed_complement(t, 2).shape == (9, 5)
        q = en.builtin_encoding("qubit")
        assert en.fixed_complement(q, 2).shape[1] == 0

    @staticmethod
    def _reference_complement(enc, n):
        """Kronecker products of per-factor columns of [B0|B1|F], kept when a
        factor is a fixed direction, in lexicographic label order."""
        full = np.hstack([enc.basis0, enc.basis1, enc.fixed])
        cols = []
        for labels in itertools.product(range(enc.ambient_dim), repeat=n):
            if max(labels) >= 2 * enc.bit_dim:
                vec = np.ones(1, dtype=complex)
                for j in labels:
                    vec = np.kron(vec, full[:, j])
                cols.append(vec)
        return np.column_stack(cols)

    def test_fixed_complement_matches_reference(self):
        rng = np.random.default_rng(29)
        q, _ = np.linalg.qr(random_complex(rng, (3, 3)))
        rotated = en.Encoding("rotated", 3, [q[:, 0]], [q[:, 1]], [q[:, 2]])
        cases = [(en.builtin_encoding("qutrit"), 2), (en.builtin_encoding("qutrit"), 3)]
        cases += [(rotated, n) for n in (1, 2, 3)]
        for enc, n in cases:
            comp = en.fixed_complement(enc, n)
            assert np.array_equal(comp, self._reference_complement(enc, n))
            logical = [
                en.logical_subspace(enc, format(i, f"0{n}b")) for i in range(2**n)
            ]
            full = np.hstack(logical + [comp])
            assert full.shape == (3**n, 3**n)
            assert np.linalg.norm(full.conj().T @ full - np.eye(3**n)) <= 1e-12


class TestClassifyState:
    def test_logical(self):
        q = en.builtin_encoding("qubit")
        got = en.classify_state(q, en.QuantumState([0, 1], q, 1), 1e-9)
        assert got.kind is en.StateKind.LOGICAL and got.bits == "1"

    def test_superposition(self):
        q = en.builtin_encoding("qubit")
        s = en.QuantumState(np.array([1, 1j]) / np.sqrt(2), q, 1)
        assert en.classify_state(q, s, 1e-9).kind is en.StateKind.SUPERPOSITION

    def test_outside_code(self):
        t = en.builtin_encoding("qutrit")
        s = en.QuantumState([0, 1, 0], t, 1)
        assert en.classify_state(t, s, 1e-9).kind is en.StateKind.OUTSIDE_CODE

    def test_state_of_another_encoding_rejected(self):
        s = en.QuantumState([1, 0], en.builtin_encoding("qubit"), 1)
        with pytest.raises(ValueError, match="different encoding"):
            en.classify_state(en.builtin_encoding("qutrit"), s, 1e-9)

    @pytest.mark.parametrize(
        "kind,bits,text",
        [
            (en.StateKind.LOGICAL, "01", "logical(01)"),
            (en.StateKind.SUPERPOSITION, None, "superposition"),
            (en.StateKind.OUTSIDE_CODE, None, "outside_code"),
        ],
    )
    def test_classification_str(self, kind, bits, text):
        assert str(en.StateClassification(kind, bits)) == text

    def test_encoded_bits_classify_logical(self, encoding):
        for n in range(1, 4):
            for idx in range(2**n):
                bits = format(idx, f"0{n}b")
                got = en.classify_state(encoding, en.encode_bits(encoding, bits), 1e-9)
                assert got == en.StateClassification(en.StateKind.LOGICAL, bits)


class TestPauliMatrix2Correspondence:
    def test_fixed_unitary_change_of_basis(self):
        """A single unitary carries the matrix-unit subspaces onto the Pauli
        ones, bit value by bit value."""
        m2 = en.builtin_encoding("matrix2")
        pl = en.builtin_encoding("pauli")
        b_m = np.hstack([m2.basis0, m2.basis1])
        b_p = np.hstack([pl.basis0, pl.basis1])
        u = b_p @ b_m.conj().T
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-12
        for src, dst in [(m2.basis0, pl.basis0), (m2.basis1, pl.basis1)]:
            image = u @ src
            residual = image - dst @ (dst.conj().T @ image)
            assert np.linalg.norm(residual) <= 1e-12


class TestQuantumState:
    def test_zero_rejected(self):
        q = en.builtin_encoding("qubit")
        with pytest.raises(ValueError, match="zero"):
            en.QuantumState([0, 0], q, 1)

    def test_nan_rejected(self):
        q = en.builtin_encoding("qubit")
        with pytest.raises(ValueError):
            en.QuantumState([np.nan, 1], q, 1)

    def test_dimension_mismatch(self):
        q = en.builtin_encoding("qubit")
        with pytest.raises(ValueError, match="does not match"):
            en.QuantumState([1, 0, 0], q, 1)

    @pytest.mark.parametrize("count", [2.0, "2", None])
    def test_non_integer_subsystem_count_rejected(self, count):
        q = en.builtin_encoding("qubit")
        with pytest.raises(ValueError, match="subsystem_count must be an integer"):
            en.QuantumState([1, 0, 0, 0], q, count)

    @pytest.mark.parametrize("count", [0, -1])
    def test_non_positive_subsystem_count_rejected(self, count):
        with pytest.raises(ValueError, match="subsystem_count must be positive"):
            en.QuantumState([1, 0], en.builtin_encoding("qubit"), count)

    def test_integer_like_subsystem_count_stored_as_int(self):
        s = en.QuantumState([1, 0, 0, 0], en.builtin_encoding("qubit"), np.int64(2))
        assert type(s.subsystem_count) is int and s.subsystem_count == 2

    def test_unnormalized_allowed(self):
        q = en.builtin_encoding("qubit")
        s = en.QuantumState([1, 1j], q, 1)
        assert abs(s.norm - np.sqrt(2)) < 1e-15
        assert abs(np.linalg.norm(s.normalized()) - 1) < 1e-15

    @pytest.mark.parametrize("scale", [5e-324, 1e-300, 1e-160, 1e160, 1e300])
    def test_norm_at_any_scale(self, scale):
        """No square of an amplitude is formed unscaled: a tiny state is not
        mistaken for the zero vector, and a huge one does not overflow."""
        q = en.builtin_encoding("qubit")
        s = en.QuantumState(np.array([1, 1j]) * scale, q, 1)
        assert s.norm == pytest.approx(np.sqrt(2) * scale, rel=1e-15 if scale > 1e-300 else 1e-3)
        assert np.allclose(s.normalized(), np.array([1, 1j]) / np.sqrt(2), rtol=0, atol=1e-15)

    def test_norm_beyond_double_range(self):
        q = en.builtin_encoding("qubit")
        s = en.QuantumState([1.5e308, -1.5e308j], q, 1)
        assert s.norm == np.inf
        assert np.allclose(s.normalized(), np.array([1, -1j]) / np.sqrt(2), rtol=0, atol=1e-15)

    def test_amplitudes_read_only(self):
        q = en.builtin_encoding("qubit")
        s = en.QuantumState([1, 0], q, 1)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 2.0

    def test_random_states_stay_finite(self):
        q = en.builtin_encoding("qubit")
        rng = np.random.default_rng(9)
        s = en.QuantumState(random_complex(rng, (4,)), q, 2)
        assert np.isfinite(s.amplitudes).all()
