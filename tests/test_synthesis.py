import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlift import encodings as en
from qlift import linalg as la
from qlift import synthesis as sy
from helpers import random_bijection_table, random_unitary

X = np.array([[0, 1], [1, 0]], dtype=complex)
NOT3 = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
NOT4 = np.array(
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

QUBIT = en.builtin_encoding("qubit")
QUTRIT = en.builtin_encoding("qutrit")
QUQUART = en.builtin_encoding("ququart")
MATRIX2 = en.builtin_encoding("matrix2")

NEGATION = sy.ClassicalFunction.negation()
CONDITIONAL_NOT = sy.ClassicalFunction.from_pairs(
    {"00": "00", "01": "01", "10": "11", "11": "10"}
)


class TestClassicalFunction:
    def test_totality_enforced(self):
        with pytest.raises(ValueError, match="not total"):
            sy.ClassicalFunction(1, 1, {"0": "1"})

    def test_output_width_enforced(self):
        with pytest.raises(ValueError):
            sy.ClassicalFunction(1, 1, {"0": "10", "1": "0"})

    def test_reversibility_flag(self):
        assert NEGATION.is_reversible
        assert sy.ClassicalFunction.identity(2).is_reversible
        assert not sy.ClassicalFunction.constant(1, "1").is_reversible
        assert not sy.ClassicalFunction(1, 2, {"0": "00", "1": "01"}).is_reversible

    def test_reversible_closure_is_bijection(self):
        f = sy.ClassicalFunction.constant(2, "1")
        closed = sy.reversible_closure(f)
        assert closed.is_reversible and closed.arity_in == 3

    def test_compose(self):
        both = sy.compose(NEGATION, NEGATION)
        assert both.table == sy.ClassicalFunction.identity(1).table

    def test_compose_rejects_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity mismatch"):
            sy.compose(NEGATION, sy.ClassicalFunction.identity(2))

    def test_image_is_read_only_integer_table(self):
        assert CONDITIONAL_NOT.image.tolist() == [0, 1, 3, 2]
        assert sy.ClassicalFunction.constant(2, "10").image.tolist() == [2, 2, 2, 2]
        with pytest.raises(ValueError, match="read-only"):
            CONDITIONAL_NOT.image[0] = 1

    def test_from_pairs_rejects_empty_input(self):
        with pytest.raises(ValueError, match="at least one"):
            sy.ClassicalFunction.from_pairs([])

    def test_equal_functions_hash_equal(self):
        again = sy.ClassicalFunction(1, 1, {"1": "0", "0": "1"})
        assert again == NEGATION and hash(again) == hash(NEGATION)
        assert len({NEGATION, again, sy.ClassicalFunction.identity(1)}) == 2
        assert NEGATION != sy.ClassicalFunction(1, 2, {"0": "01", "1": "00"})


class TestQuantizeReversible:
    def test_qubit_negation(self):
        assert np.array_equal(sy.quantize_reversible(NEGATION, QUBIT).matrix, X)

    def test_qutrit_negation(self):
        assert np.array_equal(sy.quantize_reversible(NEGATION, QUTRIT).matrix, NOT3)

    def test_ququart_negation(self):
        assert np.array_equal(sy.quantize_reversible(NEGATION, QUQUART).matrix, NOT4)

    def test_rejects_irreversible(self):
        with pytest.raises(ValueError, match="quantize_irreversible"):
            sy.quantize_reversible(sy.ClassicalFunction.constant(1, "0"), QUBIT)

    def test_non_unitary_gate_rejected(self):
        with pytest.raises(ValueError, match="synthesized gate is not unitary"):
            sy.SynthesizedGate(np.ones((2, 2)), QUBIT, NEGATION, "reversible", 1)

    def test_qubit_bijections_give_exact_permutation_matrices(self):
        rng = np.random.default_rng(41)
        for n in (1, 2, 3):
            for _ in range(5):
                table = random_bijection_table(rng, n)
                f = sy.ClassicalFunction(n, n, table)
                got = sy.quantize_reversible(f, QUBIT).matrix
                expected = np.zeros((2**n, 2**n), dtype=complex)
                for bits, out in table.items():
                    expected[int(out, 2), int(bits, 2)] = 1.0
                assert np.array_equal(got, expected)

    def test_composition(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 3):
            for _ in range(5):
                f = sy.ClassicalFunction(n, n, random_bijection_table(rng, n))
                g = sy.ClassicalFunction(n, n, random_bijection_table(rng, n))
                lhs = sy.quantize_reversible(sy.compose(f, g), QUBIT).matrix
                rhs = (
                    sy.quantize_reversible(f, QUBIT).matrix
                    @ sy.quantize_reversible(g, QUBIT).matrix
                )
                assert np.array_equal(lhs, rhs)

    def test_self_check_across_encodings(self):
        """Every synthesized gate is unitary and verifies against its source."""
        rng = np.random.default_rng(47)
        for enc in (QUBIT, QUTRIT, QUQUART, en.builtin_encoding("pauli")):
            f = sy.ClassicalFunction(1, 1, random_bijection_table(rng, 1))
            gate = sy.quantize_reversible(f, enc)
            assert la.is_unitary(gate.matrix, 1e-10)
            assert sy.is_quantization_of(gate.matrix, f, enc, 1e-9)

    def test_qutrit_gate_fixes_complement(self):
        f2 = sy.ClassicalFunction.from_pairs(
            {"00": "01", "01": "00", "10": "11", "11": "10"}
        )
        gate = sy.quantize_reversible(f2, QUTRIT).matrix
        comp = en.fixed_complement(QUTRIT, 2)
        assert np.array_equal(gate @ comp, comp)
        assert sy.is_quantization_of(gate, f2, QUTRIT, 1e-9)


class TestQuantizeIrreversible:
    def test_reset_gives_identity(self):
        got = sy.quantize_irreversible(sy.ClassicalFunction.constant(1, "0"), QUBIT)
        assert np.array_equal(got.matrix, np.eye(4).astype(complex))

    def test_constant_one(self):
        expected = np.array(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        got = sy.quantize_irreversible(sy.ClassicalFunction.constant(1, "1"), QUBIT)
        assert np.array_equal(got.matrix, expected)

    def test_identity_gives_conditional_not(self):
        got = sy.quantize_irreversible(sy.ClassicalFunction.identity(1), QUBIT)
        assert np.array_equal(got.matrix, CNOT)

    def test_all_unary_functions_involutive(self):
        tables = [
            sy.ClassicalFunction.constant(1, "0"),
            sy.ClassicalFunction.constant(1, "1"),
            sy.ClassicalFunction.identity(1),
            NEGATION,
        ]
        for f in tables:
            g = sy.quantize_irreversible(f, QUBIT).matrix
            assert np.array_equal(g @ g, np.eye(4).astype(complex))

    def test_xor_contract_on_basis_states(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            table = {
                format(i, "02b"): format(int(rng.integers(0, 4)), "02b")
                for i in range(4)
            }
            f = sy.ClassicalFunction(2, 2, table)
            g = sy.quantize_irreversible(f, QUBIT).matrix
            for x in range(4):
                for y in range(4):
                    xb, yb = format(x, "02b"), format(y, "02b")
                    fx = int(f(xb), 2)
                    src = en.encode_bits(QUBIT, xb + yb).amplitudes
                    dst = en.encode_bits(QUBIT, xb + format(fx ^ y, "02b")).amplitudes
                    assert np.array_equal(g @ src, dst)


class TestControlled:
    def test_x_gives_conditional_not(self):
        assert np.array_equal(sy.controlled(X), CNOT)

    def test_identity(self):
        assert np.array_equal(sy.controlled(np.eye(2)), np.eye(4).astype(complex))

    def test_phase(self):
        phi = 1.3
        got = sy.controlled(sy.phase_gate(phi))
        assert np.array_equal(got, np.diag([1, 1, 1, np.exp(1j * phi)]))

    def test_multiplicative(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            u, v = random_unitary(rng, 2), random_unitary(rng, 2)
            lhs = sy.controlled(u) @ sy.controlled(v)
            rhs = sy.controlled(u @ v)
            assert np.linalg.norm(lhs - rhs) <= 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="2x2"):
            sy.controlled(np.eye(3))
        with pytest.raises(ValueError, match="unitary"):
            sy.controlled(np.array([[1, 1], [0, 1]]))


class TestSqrtGate:
    def test_qutrit_root(self):
        expected = 0.5 * np.array(
            [[1 + 1j, 0, 1 - 1j], [0, 2, 0], [1 - 1j, 0, 1 + 1j]]
        )
        got = sy.sqrt_gate(sy.quantize_reversible(NEGATION, QUTRIT))
        assert np.allclose(got, expected, atol=1e-12)

    def test_ququart_root_is_block_pair(self):
        blk = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = blk
        expected[2:, 2:] = blk
        got = sy.sqrt_gate(sy.quantize_reversible(NEGATION, QUQUART))
        assert np.allclose(got, expected, atol=1e-12)

    def test_identity_root(self):
        got = sy.sqrt_gate(sy.quantize_reversible(sy.ClassicalFunction.identity(1), QUBIT))
        assert np.allclose(got, np.eye(2))

    def test_squares_back_for_all_builtin_nots(self):
        for name in en.BUILTIN_ENCODINGS:
            enc = en.builtin_encoding(name)
            gate = sy.quantize_reversible(NEGATION, enc)
            root = sy.sqrt_gate(gate)
            assert np.linalg.norm(root @ root - gate.matrix) <= 1e-9


class TestIsQuantizationOf:
    def test_conditional_not_verifies(self):
        assert sy.is_quantization_of(CNOT, CONDITIONAL_NOT, QUBIT, 1e-9)

    def test_partial_flip_is_not_a_ququart_negation(self):
        """Flipping only e3<->e4 leaves logical 0 invariant, so it fails."""
        partial = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        assert not sy.is_quantization_of(partial, NEGATION, QUQUART, 1e-9)

    def test_antidiagonal_is_not_a_matrix2_negation(self):
        anti = la.kron(X, X)
        report = sy.quantization_report(anti, NEGATION, MATRIX2, 1e-9)
        assert not report.ok
        messages = report.failures()
        assert any("logical subspace '0'" in m for m in messages)

    def test_antidiagonal_realizes_identity_instead(self):
        """e1<->e4 and e2<->e3 both stay within their logical subspaces."""
        anti = la.kron(X, X)
        assert sy.is_quantization_of(anti, sy.ClassicalFunction.identity(1), MATRIX2, 1e-9)

    def test_partial_flip_is_a_conjugated_conditional_not(self):
        """The e1<->e2-only flip equals (X kron I) CNOT (X kron I): a NOT on the
        second qubit controlled on the first being 0."""
        flip12 = np.array(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
        )
        xi = la.kron(X, np.eye(2))
        assert np.array_equal(flip12, xi @ CNOT @ xi)
        assert not np.array_equal(flip12, CNOT)
        assert not sy.is_quantization_of(flip12, NEGATION, QUQUART, 1e-9)

    def test_irreversible_functions_check_against_closure(self):
        always_one = sy.ClassicalFunction.constant(1, "1")
        gate = sy.quantize_irreversible(always_one, QUBIT).matrix
        assert sy.is_quantization_of(gate, always_one, QUBIT, 1e-9)
        assert not sy.is_quantization_of(np.eye(4), always_one, QUBIT, 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            sy.is_quantization_of(np.eye(3), NEGATION, QUBIT, 1e-9)
        with pytest.raises(ValueError, match="square"):
            sy.quantization_report(np.ones((2, 3)), NEGATION, QUBIT, 1e-9)

    def test_non_unitary_reported(self):
        report = sy.quantization_report(np.zeros((2, 2)), NEGATION, QUBIT, 1e-9)
        assert not report.ok
        assert any("not unitary" in m for m in report.failures())

    def test_complement_leak_alone_fails(self):
        """A small rotation of the fixed |22> into the even mix s of the four
        logical states: each subspace leaks sin(t)/2 or less, the complement
        sin(t), so only the complement check fails at tol = 0.75 sin(t)."""
        t = 1e-3
        s = sum(en.encode_bits(QUTRIT, b).amplitudes for b in ("00", "01", "10", "11")) / 2
        c = np.kron(QUTRIT.fixed[:, 0], QUTRIT.fixed[:, 0])
        u = np.eye(9) + (np.cos(t) - 1) * (np.outer(c, c) + np.outer(s, s)) + np.sin(t) * (
            np.outer(s, c) - np.outer(c, s)
        )
        report = sy.quantization_report(u, sy.ClassicalFunction.identity(2), QUTRIT, 0.75 * np.sin(t))
        assert report.unitary and all(check.ok for check in report.subspace_checks)
        assert report.complement_residual == pytest.approx(np.sin(t))
        assert not report.ok and report.failures()[0].startswith("fixed complement is not preserved")

    @pytest.mark.parametrize(
        "routine,tol",
        [
            pytest.param(routine, tol, id=f"{prefix}{tol!r}")
            for prefix, routine in [
                ("", lambda tol: sy.quantization_report(X, NEGATION, QUBIT, tol)),
                ("classify_state-", lambda tol: en.classify_state(QUBIT, en.encode_bits(QUBIT, "01"), tol)),
                ("is_unitary-", lambda tol: la.is_unitary(np.eye(2), tol)),
                ("equal_up_to_phase-", lambda tol: la.equal_up_to_phase(np.eye(2), np.eye(2), tol)),
                ("principal_unitary_sqrt-", lambda tol: la.principal_unitary_sqrt(np.eye(2), tol)),
            ]
            for tol in [float("nan"), -1e-9, -float("inf")]
        ],
    )
    def test_nan_or_negative_tol_rejected(self, routine, tol):
        """Every routine that takes a tolerance holds it to one rule."""
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            routine(tol)

    def test_huge_permutation_is_not_a_quantization(self):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            report = sy.quantization_report(X * 1e160, NEGATION, QUBIT, 1e-9)
        assert [c.residual for c in report.subspace_checks] == [0.0, 0.0]
        assert not report.unitary and report.failures() == [
            f"matrix is not unitary (residual {report.unitarity_residual:.3e})"
        ]

    @given(st.sampled_from(["qubit", "qutrit", "pauli"]), st.integers(-300, 300), st.integers(0, 2**32 - 1))
    @example("qutrit", 160, 0)
    @example("pauli", -300, 0)
    @example("qutrit", 300, 1)
    @settings(max_examples=100, deadline=None)
    def test_residuals_scale_with_the_input(self, name, exponent, seed):
        """The leak residuals of s*u are s times those of u, at any scale s."""
        enc = en.builtin_encoding(name)
        u = random_unitary(np.random.default_rng(seed), enc.ambient_dim)
        s = 10.0**exponent
        ref = sy.quantization_report(u, NEGATION, enc, 1e-9)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = sy.quantization_report(u * s, NEGATION, enc, 1e-9)
        for check, expected in zip(got.subspace_checks, ref.subspace_checks):
            assert check.residual == pytest.approx(expected.residual * s, rel=1e-9, abs=0)
        if ref.complement_residual is not None:
            assert got.complement_residual == pytest.approx(ref.complement_residual * s, rel=1e-9, abs=0)


class TestEnumeration:
    def test_qubit_negation_unique(self):
        out = sy.enumerate_permutation_quantizations(NEGATION, QUBIT)
        assert len(out) == 1 and np.array_equal(out[0], X)

    def test_ququart_negation_has_four(self):
        out = sy.enumerate_permutation_quantizations(NEGATION, QUQUART)
        assert len(out) == 4
        alt2 = np.array(
            [[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]], dtype=complex
        )
        alt3 = np.array(
            [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex
        )
        for wanted in (NOT4, alt2, alt3):
            assert any(np.array_equal(m, wanted) for m in out)

    def test_qutrit_identity_unique(self):
        """A permutation must fix the complement pointwise, leaving only I3."""
        out = sy.enumerate_permutation_quantizations(sy.ClassicalFunction.identity(1), QUTRIT)
        assert len(out) == 1 and np.array_equal(out[0], np.eye(3).astype(complex))

    def test_completeness(self):
        """Permutations outside the returned set all fail the subspace check."""
        accepted = sy.enumerate_permutation_quantizations(NEGATION, QUQUART)
        count = 0
        for perm in itertools.permutations(range(4)):
            p = np.zeros((4, 4), dtype=complex)
            for j, i in enumerate(perm):
                p[i, j] = 1.0
            ok = sy.is_quantization_of(p, NEGATION, QUQUART, 1e-9)
            assert ok == any(np.array_equal(p, m) for m in accepted)
            count += ok
        assert count == 4

    def test_dimension_cap(self):
        two_bits = sy.ClassicalFunction.identity(2)
        with pytest.raises(ValueError, match="cap"):
            sy.enumerate_permutation_quantizations(two_bits, QUQUART)

    def test_rejects_irreversible(self):
        with pytest.raises(ValueError, match="reversible"):
            sy.enumerate_permutation_quantizations(sy.ClassicalFunction.constant(1, "0"), QUBIT)


class TestNamedGates:
    def test_hadamard_is_unitary(self):
        assert la.is_unitary(sy.hadamard(), 1e-12)
        assert np.allclose(sy.hadamard() @ sy.hadamard(), np.eye(2), atol=1e-15)

    def test_half_normalized_variant_is_not_unitary(self):
        """The 1/2-prefactor variant fails unitarity; the library uses 1/sqrt 2."""
        assert not la.is_unitary(np.array([[1, 1], [1, -1]]) / 2, 1e-9)

    def test_phase_gate_entries(self):
        for phi in (0.0, np.pi / 2, np.pi):
            got = sy.phase_gate(phi)
            assert np.array_equal(got, np.array([[1, 0], [0, np.exp(1j * phi)]]))
        for phi in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                sy.phase_gate(phi)

    def test_named_resolution(self):
        assert np.array_equal(sy.named_gate("NOT", QUTRIT), NOT3)
        assert np.array_equal(sy.named_gate("CNOT", QUBIT), CNOT)
        with pytest.raises(ValueError, match="unknown gate"):
            sy.named_gate("TOFFOLI", QUBIT)
        with pytest.raises(ValueError, match="angle"):
            sy.named_gate("R", QUBIT)
