import dataclasses
import itertools
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlift import encodings as en
from qlift import io as qio
from qlift import linalg as la
from qlift import synthesis as sy
from qlift.simulator import Circuit, CircuitStep, apply_gate
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

    @pytest.mark.parametrize("arities", [(1.0, 1), (1, 1.0)])
    def test_arities_are_integers(self, arities):
        with pytest.raises(ValueError, match=r"^arity must be an integer, got 1\.0$"):
            sy.ClassicalFunction(*arities, {"0": "1", "1": "0"})
        f = sy.ClassicalFunction(np.int64(1), np.int64(1), {"0": "1", "1": "0"})
        assert type(f.arity_in) is int and type(f.arity_out) is int and f == NEGATION

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
        with pytest.raises(ValueError, match="synthesized gate is not unitary") as err:
            sy.SynthesizedGate(np.ones((2, 2)), QUBIT, NEGATION)
        # ones^dagger ones - I = [[1, 2], [2, 1]], of Frobenius norm sqrt(10).
        assert str(err.value).endswith(f"(residual {np.sqrt(10):.3e}, tol 1.000e-09)")

    def test_gate_holds_matrix_encoding_and_source_only(self):
        names = [f.name for f in dataclasses.fields(sy.SynthesizedGate)]
        assert names == ["matrix", "encoding", "source"]
        gate = sy.SynthesizedGate(X, QUBIT, NEGATION)
        assert np.array_equal(gate.matrix, X) and gate.encoding is QUBIT and gate.source is NEGATION

    @pytest.mark.parametrize("shape", [(2, 4), (4, 2), (1, 2)])
    def test_non_square_gate_rejected(self, shape):
        with pytest.raises(ValueError, match="synthesized gate is not unitary") as err:
            sy.SynthesizedGate(np.eye(*shape), QUBIT, NEGATION)
        assert str(err.value).endswith(f"shape {shape} is not square")

    def test_gate_holds_synthesis_matrix_and_copies_a_callers(self):
        """Synthesis hands its read-only matrix over uncopied: under a
        permutation frame one that owns its memory, under a rotated frame
        one that cannot be made writeable.  A caller's writeable array, a
        view of one or a read-only view of one is copied, so writing to it
        afterwards leaves the gate unchanged."""
        for enc in (QUBIT, en.builtin_encoding("pauli")):
            built = sy.quantize_reversible(NEGATION, enc).matrix
            assert not built.flags.writeable
            if enc is QUBIT:
                assert built.flags.owndata
            else:
                with pytest.raises(ValueError, match="WRITEABLE"):
                    built.setflags(write=True)
            assert sy.SynthesizedGate(built, enc, NEGATION).matrix is built

        def read_only_view(a):
            view = a.view()
            view.setflags(write=False)
            return view

        for make in (lambda a: a, lambda a: a[:, :], read_only_view):
            a = X.copy()
            gate = sy.SynthesizedGate(make(a), QUBIT, NEGATION)
            a[...] = np.eye(2)
            assert np.array_equal(gate.matrix, X) and not gate.matrix.flags.writeable

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


class TestOneGateTolerance:
    """u = 1.00000000025 X is off unitary by 7.1e-10, inside the one gate
    tolerance (1e-9) that decides everywhere whether a matrix may be a gate;
    v = 1.000000001 X, off by 2.8e-9, is outside it everywhere."""

    U = 1.00000000025 * X
    V = 1.000000001 * X

    def test_residuals(self):
        assert 7.0e-10 < la._unitarity_residual(self.U) < 7.1e-10 < 1e-9 < la._unitarity_residual(self.V)

    def test_controlled_accepts_what_circuit_c_gates_run(self):
        assert np.array_equal(sy.controlled(self.U)[2:, 2:], self.U)
        Circuit(QUBIT, 2, [CircuitStep(sy._controlled_block(self.U), (0, 1))])

    def test_synthesized_gate_accepts_what_circuits_and_roots_accept(self):
        gate = sy.SynthesizedGate(self.U, QUBIT, NEGATION)
        assert np.array_equal(gate.matrix, self.U)
        Circuit(QUBIT, 1, [CircuitStep(self.U, (0,))])
        la.principal_unitary_sqrt(self.U)

    def test_just_outside_rejected_everywhere(self):
        with pytest.raises(ValueError, match="expects a unitary matrix"):
            sy.controlled(self.V)
        with pytest.raises(ValueError, match="synthesized gate is not unitary") as synthesized:
            sy.SynthesizedGate(self.V, QUBIT, NEGATION)
        with pytest.raises(ValueError, match="^step 0: gate matrix is not unitary") as circuit:
            Circuit(QUBIT, 1, [CircuitStep(self.V, (0,))])
        with pytest.raises(ValueError, match="requires a unitary matrix") as root:
            la.principal_unitary_sqrt(self.V)
        # The errors name the residual, 2.828e-09 here, and the tolerance.
        figures = f"(residual {la._unitarity_residual(self.V):.3e}, tol 1.000e-09)"
        assert figures == "(residual 2.828e-09, tol 1.000e-09)"
        assert all(str(e.value).endswith(figures) for e in (synthesized, circuit, root))
        with pytest.raises(ValueError, match="requires a unitary matrix") as root:
            la.principal_unitary_sqrt(self.U, tol=1e-10)
        assert str(root.value).endswith(f"(residual {la._unitarity_residual(self.U):.3e}, tol 1.000e-10)")


class TestGateRules:
    """Every square check is linalg._square and every check that a matrix is
    unitary enough to be a gate is linalg._unitary, so each site raises one
    message form with the shape, or with the residual and the tolerance."""

    @pytest.mark.parametrize(
        "call,what",
        [
            (lambda m: la.principal_unitary_sqrt(m), "principal_unitary_sqrt"),
            (lambda m: la.is_unitary(m, 1e-9), "is_unitary"),
            (lambda m: sy.quantization_report(m, NEGATION, QUBIT, 1e-9), "quantization_report"),
            (lambda m: sy.SynthesizedGate(m, QUBIT, NEGATION), "synthesized gate is not unitary"),
            (lambda m: Circuit(QUBIT, 1, [CircuitStep(m, (0,))]), "gate matrix"),
            (lambda m: apply_gate(en.encode_bits(QUBIT, "0"), m, (0,)), "gate matrix"),
        ],
        ids=["root", "is_unitary", "report", "synthesized", "circuit", "apply_gate"],
    )
    def test_square_sites(self, call, what):
        with pytest.raises(ValueError) as err:
            call(np.eye(2, 3))
        assert str(err.value) == f"{what}: shape (2, 3) is not square"

    def test_square_coerces_and_checks_the_rank_first(self):
        got, (rows, cols) = la._square([[1, 2], [3, 4]], "m")
        assert got.dtype == np.complex128 and np.array_equal(got, [[1, 2], [3, 4]])
        assert len(rows) == len(cols) == 0
        _, (rows, cols) = la._square([[0, 2], [3j, 0]], "m")
        assert rows.tolist() == [0, 1] and cols.tolist() == [1, 0]
        with pytest.raises(ValueError, match=r"^expected a matrix, got shape \(3,\)$"):
            la.principal_unitary_sqrt(np.ones(3))

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: sy.controlled(2 * np.eye(2)), "controlled() expects a unitary matrix"),
            (lambda: sy.SynthesizedGate(2 * np.eye(2), QUBIT, NEGATION), "synthesized gate is not unitary"),
            (
                lambda: Circuit(QUBIT, 1, [CircuitStep("H", (0,)), CircuitStep(2 * np.eye(2), (0,))]),
                "step 1: gate matrix is not unitary",
            ),
            (lambda: la.principal_unitary_sqrt(2 * np.eye(2)), "principal_unitary_sqrt requires a unitary matrix"),
        ],
        ids=["controlled", "synthesized", "circuit", "root"],
    )
    def test_unitary_sites(self, call, message):
        """||(2I)^dagger (2I) - I||_F = 3 sqrt(2) against the gate tolerance."""
        assert f"{la._unitarity_residual(2 * np.eye(2)):.3e}" == "4.243e+00"
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"{message} (residual 4.243e+00, tol 1.000e-09)"

    def test_root_at_zero_tolerance(self):
        """1.00000000025 X is no permutation matrix, so its residual,
        7.071e-10, is held to tol = 0."""
        with pytest.raises(ValueError) as err:
            la.principal_unitary_sqrt(1.00000000025 * X, tol=0)
        assert str(err.value) == "principal_unitary_sqrt requires a unitary matrix (residual 7.071e-10, tol 0.000e+00)"

    @pytest.mark.parametrize(
        "basis1,residual", [([[1, 1]], "1.732e+00"), ([[0, 1e200]], "inf")], ids=["skew", "1e200"]
    )
    def test_encoding_frame(self, basis1, residual):
        """The frame [[1, 1], [0, 1]] is off orthonormal by sqrt(3); one of
        norm 1e200 by about 1e400, beyond the double range."""
        with pytest.raises(ValueError) as err:
            en.Encoding("e", 2, [[1, 0]], basis1)
        assert str(err.value) == f"encoding basis vectors are not orthonormal (residual {residual}, tol 1.000e-12)"


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

    @pytest.mark.parametrize("enc", [QUBIT, QUTRIT, QUQUART, en.builtin_encoding("pauli")])
    @pytest.mark.parametrize("h", [sy.ClassicalFunction.identity(1), NEGATION, CONDITIONAL_NOT])
    def test_bijection_checks_against_closure_at_its_dimension(self, enc, h):
        """quantize_irreversible of a bijection builds its closure on 2m
        bits; a matrix of that dimension is checked against the closure, one
        of d^m against h itself."""
        closed = sy.quantize_irreversible(h, enc).matrix
        report = sy.quantization_report(closed, h, enc, 1e-9)
        assert report.ok and len(report.subspace_checks) == 4**h.arity_in
        assert report == sy.quantization_report(closed, sy.reversible_closure(h), enc, 1e-9)
        own = sy.quantization_report(sy.quantize_reversible(h, enc).matrix, h, enc, 1e-9)
        assert own.ok and len(own.subspace_checks) == 2**h.arity_in
        assert not sy.is_quantization_of(np.eye(len(closed)), h, enc, 1e-9)

    def test_dimension_mismatch(self):
        both = "does not match d\\^n = 2\\^1 = 2, nor the reversible closure's 2\\^2 = 4"
        with pytest.raises(ValueError, match=both):
            sy.is_quantization_of(np.eye(3), NEGATION, QUBIT, 1e-9)
        with pytest.raises(ValueError, match="does not match d\\^n = 2\\^2 = 4$"):
            sy.is_quantization_of(np.eye(3), sy.ClassicalFunction.constant(1, "1"), QUBIT, 1e-9)
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


def brute_force_permutation_quantizations(f, enc):
    """The enumeration's reference: every permutation of the ambient basis,
    in lexicographic order, each checked with is_quantization_of."""
    dim = enc.ambient_dim**f.arity_in
    eye = np.eye(dim, dtype=np.complex128)
    perms = (eye[:, p] for p in itertools.permutations(range(dim)))
    return [p for p in perms if sy.is_quantization_of(p, f, enc, 1e-9)]


def assert_matches_brute_force(f, enc, count):
    """The enumeration returns `count` matrices, array_equal in order to the
    reference's."""
    out = sy.enumerate_permutation_quantizations(f, enc)
    ref = brute_force_permutation_quantizations(f, enc)
    assert len(out) == len(ref) == count
    assert all(np.array_equal(a, b) for a, b in zip(out, ref))
    return out


def _qutrit_rotated(u):
    return en.Encoding("rotated", 3, [u[:, 0]], [u[:, 1]], [u[:, 2]])


# Under the rotation (|0> ± i|2>)/sqrt(2) the swap of |0> and |2> is a NOT
# (up to a phase on each logical vector) and not an identity.
QUTRIT_COMPLEX = _qutrit_rotated(np.array([[1, 1, 0], [0, 0, np.sqrt(2)], [1j, -1j, 0]]) / np.sqrt(2))
HADAMARD = en.Encoding("hadamard", 2, [np.array([1, 1]) / np.sqrt(2)], [np.array([1, -1]) / np.sqrt(2)])
QUTRIT_RANDOM = _qutrit_rotated(random_unitary(np.random.default_rng(7), 3))
ALIGNED = [QUBIT, QUTRIT, QUQUART, MATRIX2]
QUTRIT_LIKE = qio._resolve_encoding("qutrit_like.enc", os.path.join(os.path.dirname(__file__), "fixtures"))
INCREMENT3 = sy.ClassicalFunction._from_image(3, 3, [1, 2, 3, 4, 5, 6, 7, 0])


class TestEnumeration:
    @pytest.mark.parametrize("perm", list(itertools.permutations(range(4))))
    def test_two_bit_qubit_bijections_match_brute_force(self, perm):
        f = sy.ClassicalFunction._from_image(2, 2, perm)
        (out,) = assert_matches_brute_force(f, QUBIT, 1)
        assert np.array_equal(out, np.eye(4)[:, list(perm)])

    @pytest.mark.parametrize("perm", list(itertools.permutations(range(4))))
    def test_two_bit_hadamard_bijections_match_brute_force(self, perm):
        """Under the rotated frame (|0> ± |1>)/sqrt(2) the 24 permutations
        split four each among the six linear bijections, those fixing 00."""
        f = sy.ClassicalFunction._from_image(2, 2, perm)
        assert_matches_brute_force(f, HADAMARD, 4 if perm[0] == 0 else 0)

    @pytest.mark.parametrize(
        "name,negations,identities",
        [("qubit", 1, 1), ("qutrit", 1, 1), ("ququart", 4, 4), ("matrix2", 4, 4), ("pauli", 0, 8)],
    )
    def test_builtin_encodings_match_brute_force(self, name, negations, identities):
        enc = en.builtin_encoding(name)
        assert_matches_brute_force(NEGATION, enc, negations)
        assert_matches_brute_force(sy.ClassicalFunction.identity(1), enc, identities)

    @pytest.mark.parametrize(
        "enc,negations,identities",
        [
            (QUTRIT_LIKE, 1, 1),
            (QUTRIT_COMPLEX, 1, 1),
            (QUTRIT_RANDOM, 0, 1),
        ],
        ids=["qutrit_like", "complex_rotation", "random_rotation"],
    )
    def test_custom_encodings_match_brute_force(self, enc, negations, identities):
        assert_matches_brute_force(NEGATION, enc, negations)
        assert_matches_brute_force(sy.ClassicalFunction.identity(1), enc, identities)

    def test_complex_rotation_negation_is_the_outer_swap(self):
        (out,) = sy.enumerate_permutation_quantizations(NEGATION, QUTRIT_COMPLEX)
        assert np.array_equal(out, np.eye(3)[:, [2, 1, 0]])

    @pytest.mark.parametrize("f", [INCREMENT3, sy.ClassicalFunction.identity(3)], ids=["increment", "identity"])
    def test_three_bit_qubit_functions_give_their_permutation(self, f):
        """8! = 40,320 orderings, of which the search completes one."""
        out = sy.enumerate_permutation_quantizations(f, QUBIT)
        assert len(out) == 1 and np.array_equal(out[0], np.eye(8)[:, f.image])

    @pytest.mark.parametrize("enc", ALIGNED, ids=lambda e: e.name)
    def test_aligned_encodings_confirm_only_the_results(self, monkeypatch, enc):
        """Under an encoding whose frame is a permutation the projectors are
        0/1, so every branch that reaches a complete assignment is a result."""
        calls = []
        real = sy.is_quantization_of

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(sy, "is_quantization_of", counted)
        functions = [NEGATION, sy.ClassicalFunction.identity(1)]
        if enc is QUBIT:
            functions += [CONDITIONAL_NOT, INCREMENT3]
        for f in functions:
            calls.clear()
            out = sy.enumerate_permutation_quantizations(f, enc)
            assert out and len(calls) == len(out)

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
        with pytest.raises(ValueError, match="^ambient dimension 16 exceeds the enumeration cap of 8$"):
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

    @pytest.mark.parametrize("phi", [1j, np.complex128(0.3), "0.3"])
    def test_angle_must_be_real(self, phi):
        for resolve in (sy.phase_gate, lambda phi: sy.named_gate("R", QUBIT, phi)):
            with pytest.raises(ValueError, match="phase angle must be a finite real number"):
                resolve(phi)

    @pytest.mark.parametrize("phi", [10**400, -(10**400), 10**5000], ids=["1e400", "-1e400", "1e5000"])
    def test_angle_beyond_the_double_range(self, phi):
        """A Python int beyond the double range is refused like inf, not
        left to overflow when converted, even one too long to print."""
        for resolve in (sy.phase_gate, lambda phi: sy.named_gate("R", QUBIT, phi)):
            with pytest.raises(ValueError, match="phase angle must be a finite real number"):
                resolve(phi)

    @pytest.mark.parametrize("phi", [np.float64(0.3), np.int64(2), 2, 0.3, np.float32(0.5)])
    def test_numpy_and_python_real_angles_accepted(self, phi):
        want = np.array([[1, 0], [0, np.exp(1j * float(phi))]])
        assert np.array_equal(sy.phase_gate(phi), want)
        assert np.array_equal(sy.named_gate("R", QUBIT, phi), want)

    def test_named_resolution(self):
        assert np.array_equal(sy.named_gate("NOT", QUTRIT), NOT3)
        assert np.array_equal(sy.named_gate("CNOT", QUBIT), CNOT)
        with pytest.raises(ValueError, match="unknown gate"):
            sy.named_gate("TOFFOLI", QUBIT)
        with pytest.raises(ValueError, match="angle"):
            sy.named_gate("R", QUBIT)
