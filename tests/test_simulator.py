import numpy as np
import pytest

from qlift import encodings as en
from qlift import linalg as la
from qlift import simulator as sim
from qlift import synthesis as sy
from helpers import random_complex, random_unitary

QUBIT = en.builtin_encoding("qubit")
QUTRIT = en.builtin_encoding("qutrit")
MATRIX2 = en.builtin_encoding("matrix2")

BELL = sim.Circuit(QUBIT, 2, (sim.CircuitStep("H", (0,)), sim.CircuitStep("CNOT", (0, 1))))


class TestApplyGate:
    def test_conditional_not_flips_target(self):
        out = sim.apply_gate(en.encode_bits(QUBIT, "10"), sy.cnot(), (0, 1))
        assert np.array_equal(out.amplitudes, en.encode_bits(QUBIT, "11").amplitudes)

    def test_identity_is_noop(self):
        rng = np.random.default_rng(5)
        s = en.QuantumState(random_complex(rng, (8,)), QUBIT, 3)
        out = sim.apply_gate(s, np.eye(2), (1,))
        assert np.allclose(out.amplitudes, s.amplitudes)

    def test_hadamard_twice_restores(self):
        s = en.encode_bits(QUBIT, "0")
        out = sim.apply_gate(sim.apply_gate(s, sy.hadamard(), (0,)), sy.hadamard(), (0,))
        assert np.allclose(out.amplitudes, [1, 0], atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        s = en.QuantumState(random_complex(rng, (8,)), QUBIT, 3)
        out = sim.apply_gate(s, random_unitary(rng, 4), (2, 0))
        assert abs(out.norm - s.norm) <= 1e-10

    def test_target_order_matters_consistently(self):
        """g on targets (1,0) equals SWAP g SWAP on targets (0,1)."""
        rng = np.random.default_rng(11)
        s = en.QuantumState(random_complex(rng, (4,)), QUBIT, 2)
        g = random_unitary(rng, 4)
        a = sim.apply_gate(s, g, (1, 0)).amplitudes
        b = sim.apply_gate(s, sy.swap() @ g @ sy.swap(), (0, 1)).amplitudes
        assert np.linalg.norm(a - b) <= 1e-12

    def test_result_beyond_the_double_range_rejected(self):
        """H on [1.5e308, 1.5e308] gives 2.1e308 in its first entry: a
        ValueError naming the double range, and no numpy warning (the suite
        runs with warnings as errors)."""
        s = en.QuantumState(np.array([1.5e308, 1.5e308]), QUBIT, 1)
        with pytest.raises(ValueError, match="^circuit state exceeds the double range$"):
            sim.apply_gate(s, "H", (0,))

    def test_overflow_within_the_fold_is_redone_scaled(self):
        """H H on [1.7e308, 1.7e308] overflows after the first H, but the
        result is back in range: the scaled fold returns it."""
        s = en.QuantumState(np.array([1.7e308, 1.7e308]), QUBIT, 1)
        circ = sim.Circuit(QUBIT, 1, (sim.CircuitStep("H", (0,)), sim.CircuitStep("H", (0,))))
        out = sim._fold(circ, s.amplitudes)
        assert np.allclose(out.amplitudes / 1.7e308, [1, 1], rtol=0, atol=1e-15)
        y, e = la._prescale(s.amplitudes)
        unscaled = np.ldexp(sim._fold(circ, y).amplitudes.view(float), e).view(complex)
        assert np.array_equal(out.amplitudes, unscaled)

    def test_ordinary_states_are_folded_unscaled(self):
        """Below the overflow the fold is the plain product of the steps,
        bit for bit, at any scale."""
        rng = np.random.default_rng(31)
        u = random_unitary(rng, 4)
        for scale in (1.0, 1e300, 1e-300):
            s = en.QuantumState(random_complex(rng, (8,)) * scale, QUBIT, 3)
            # Targets (2, 0): axes 2 and 0 to the front, u, and back.
            front = np.moveaxis(s.amplitudes.reshape(2, 2, 2), (2, 0), (0, 1))
            expected = np.moveaxis((u @ front.reshape(4, 2)).reshape(2, 2, 2), (0, 1), (2, 0))
            assert np.array_equal(sim.apply_gate(s, u, (2, 0)).amplitudes, expected.reshape(-1))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            sim.apply_gate(en.encode_bits(QUBIT, "0"), np.array([[1, 1], [0, 1]]), (0,))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"^gate matrix: shape \(2, 3\) is not square$"):
            sim.apply_gate(en.encode_bits(QUBIT, "0"), np.eye(2, 3), (0,))

    def test_rejects_bad_targets(self):
        s = en.encode_bits(QUBIT, "00")
        with pytest.raises(ValueError, match="out of range"):
            sim.apply_gate(s, np.eye(2), (2,))
        with pytest.raises(ValueError, match="duplicate"):
            sim.apply_gate(s, np.eye(4), (0, 0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            sim.apply_gate(en.encode_bits(QUTRIT, "0"), np.eye(2), (0,))

    def test_rejects_non_integer_target(self):
        """A float target is an error, not truncated to an index."""
        with pytest.raises(ValueError, match=r"integers, got \(1\.7,\)"):
            sim.apply_gate(en.encode_bits(QUBIT, "00"), sy.hadamard(), (1.7,))

    def test_numpy_integer_targets_accepted(self):
        s = en.encode_bits(QUBIT, "10")
        out = sim.apply_gate(s, sy.cnot(), np.array([0, 1]))
        assert np.array_equal(out.amplitudes, en.encode_bits(QUBIT, "11").amplitudes)

    def test_takes_any_gate_a_circuit_step_takes(self):
        """A builtin name or a gate tensor acts exactly as its matrix does."""
        rng = np.random.default_rng(19)
        s = en.QuantumState(random_complex(rng, (4,)), QUBIT, 2)
        for name, matrix in (("H", sy.hadamard()), ("NOT", sy.named_gate("NOT", QUBIT))):
            for targets in ((0,), (1,)):
                want = sim.apply_gate(s, matrix, targets).amplitudes
                assert np.array_equal(sim.apply_gate(s, name, targets).amplitudes, want)
        g = sy.named_gate("NOT", MATRIX2)
        s = en.QuantumState(random_complex(rng, (16,)), MATRIX2, 2)
        got = sim.apply_gate(s, la.matrix_to_tensor(g, 2, 2), (1,)).amplitudes
        assert np.array_equal(got, sim.apply_gate(s, g, (1,)).amplitudes)


class TestTensorGate:
    # Slices of the printed (2,2,4) flip tensor.
    FLIP = np.stack(
        [
            np.array([[0, 0], [0, 1]]),
            np.array([[0, 0], [1, 0]]),
            np.array([[0, 1], [0, 0]]),
            np.array([[1, 0], [0, 0]]),
        ],
        axis=-1,
    ).astype(complex)

    def test_flip_tensor_action(self):
        """Frozen from the trace oracle: x11 and x22 swap, off-diagonal fixed."""
        x = np.array([[1, 2], [3, 4]], dtype=complex)
        out = la.tensor_apply(self.FLIP, x)
        assert np.array_equal(out, np.array([[4, 2], [3, 1]], dtype=complex))

    def test_zero_tensor(self):
        out = la.tensor_apply(np.zeros((2, 2, 4)), np.eye(2))
        assert np.array_equal(out, np.zeros((2, 2), dtype=complex))

    def test_identity_tensor(self):
        t = la.matrix_to_tensor(np.eye(4), 2, 2)
        rng = np.random.default_rng(13)
        x = random_complex(rng, (2, 2))
        assert np.allclose(la.tensor_apply(t, x), x)

    def test_matches_matrix_route(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = random_complex(rng, (4, 4))
            x = random_complex(rng, (2, 2))
            t = la.matrix_to_tensor(g, 2, 2)
            lhs = la.tensor_apply(t, x)
            rhs = la.unres(g @ la.res(x), 2, 2)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_tensor_step_in_circuit(self):
        g = sy.quantize_reversible(sy.ClassicalFunction.negation(), MATRIX2).matrix
        t = la.matrix_to_tensor(g, 2, 2)
        circ = sim.Circuit(MATRIX2, 1, (sim.CircuitStep(t, (0,)),))
        out = sim.run_circuit(circ, "0")
        assert np.array_equal(out.amplitudes, g @ en.encode_bits(MATRIX2, "0").amplitudes)


class TestRunCircuit:
    def test_bell_preparation(self):
        out = sim.run_circuit(BELL, "00")
        assert np.allclose(out.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-12)

    def test_empty_circuit(self):
        out = sim.run_circuit(sim.Circuit(QUBIT, 2, ()), "01")
        assert np.array_equal(out.amplitudes, [0, 1, 0, 0])

    def test_qutrit_negation(self):
        circ = sim.Circuit(QUTRIT, 1, (sim.CircuitStep("NOT", (0,)),))
        out = sim.run_circuit(circ, "0")
        assert np.array_equal(out.amplitudes, [0, 0, 1])

    def test_norm_preserved_over_many_steps(self):
        rng = np.random.default_rng(19)
        steps = []
        for _ in range(20):
            k = int(rng.integers(1, 3))
            targets = tuple(rng.choice(3, size=k, replace=False).tolist())
            steps.append(sim.CircuitStep(random_unitary(rng, 2**k), targets))
        out = sim.run_circuit(sim.Circuit(QUBIT, 3, tuple(steps)), "000")
        assert abs(out.norm - 1) <= 1e-9

    def test_input_width_checked(self):
        with pytest.raises(ValueError, match="width"):
            sim.run_circuit(BELL, "0")

    def test_non_integer_width_rejected(self):
        with pytest.raises(ValueError, match="circuit width must be an integer"):
            sim.Circuit(QUBIT, 2.0, (sim.CircuitStep("H", (0,)),))

    @pytest.mark.parametrize("width", [0, -1])
    def test_non_positive_width_rejected(self, width):
        with pytest.raises(ValueError, match="circuit width must be positive"):
            sim.Circuit(QUBIT, width, ())

    def test_width_cap(self):
        with pytest.raises(ValueError, match="cap"):
            sim.run_circuit(sim.Circuit(QUBIT, 21, ()), "0" * 21)

    def test_named_phase_gate_step(self):
        circ = sim.Circuit(
            QUBIT, 1, (sim.CircuitStep("R", (0,), phi=np.pi),)
        )
        out = sim.run_circuit(circ, "1")
        assert np.allclose(out.amplitudes, [0, -1])


class TestCircuitConstruction:
    @pytest.mark.parametrize(
        "step,match",
        [
            (sim.CircuitStep("H", (2,)), "out of range"),
            (sim.CircuitStep("CNOT", (1, 1)), "duplicate"),
            (sim.CircuitStep("H", (0, 1)), "dimension"),
            (sim.CircuitStep(np.array([[1, 1], [0, 1]]), (0,)), "not unitary"),
            (sim.CircuitStep("H", (0.9,)), r"integers, got \(0\.9,\)"),
            (sim.CircuitStep("FROB", (0,)), "unknown gate"),
        ],
    )
    def test_bad_step_raises_when_built(self, step, match):
        with pytest.raises(ValueError, match=match):
            sim.Circuit(QUBIT, 2, (sim.CircuitStep("H", (0,)), step))

    def test_non_unitary_error_names_the_step_and_its_residual(self):
        """The error names the first step that uses the gate and ends in
        ||m^dagger m - I||_F of the shear, sqrt(3), and the tolerance."""
        shear = np.array([[1, 1], [0, 1]])
        steps = (sim.CircuitStep("H", (0,)), sim.CircuitStep(shear, (1,)), sim.CircuitStep(shear, (0,)))
        message = r"^step 1: gate matrix is not unitary \(residual 1\.732e\+00, tol 1\.000e-09\)$"
        with pytest.raises(ValueError, match=message):
            sim.Circuit(QUBIT, 2, steps)

    def test_shape_is_checked_before_the_targets(self):
        """A 2x3 gate on an out-of-range target is refused for its shape."""
        with pytest.raises(ValueError, match=r"^gate matrix: shape \(2, 3\) is not square$"):
            sim.Circuit(QUBIT, 2, (sim.CircuitStep(np.eye(2, 3), (5,)),))

    @pytest.mark.parametrize("phi", [1j, np.complex128(0.3), "0.3"])
    def test_r_angle_must_be_real(self, phi):
        with pytest.raises(ValueError, match="phase angle must be a finite real number"):
            sim.Circuit(QUBIT, 1, (sim.CircuitStep("R", (0,), phi=phi),))

    @pytest.mark.parametrize("phi", [10**400, -(10**400)], ids=["1e400", "-1e400"])
    def test_r_angle_beyond_the_double_range(self, phi):
        with pytest.raises(ValueError, match="phase angle must be a finite real number"):
            sim.Circuit(QUBIT, 1, (sim.CircuitStep("R", (0,), phi=phi),))

    @pytest.mark.parametrize("name,targets", [("H", (0,)), ("NOT", (1,)), ("SWAP", (0, 1))])
    def test_only_r_takes_an_angle(self, name, targets):
        with pytest.raises(ValueError, match=rf"^only R takes an angle, got 0\.3 for {name}$"):
            sim.Circuit(QUBIT, 2, (sim.CircuitStep(name, targets, phi=0.3),))

    def test_each_step_resolved_and_checked_once(self, monkeypatch):
        calls = dict.fromkeys(["_unitary", "named_gate", "QuantumState"], 0)

        def count(name):
            real = getattr(sim, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(sim, name, wrapper)

        for name in calls:
            count(name)
        rng = np.random.default_rng(29)
        steps = (
            sim.CircuitStep("H", (0,)),
            sim.CircuitStep("NOT", (1,)),
            sim.CircuitStep("SQRT_NOT", (2,)),
            sim.CircuitStep("CNOT", (0, 2)),
            sim.CircuitStep("R", (1,), phi=0.5),
            sim.CircuitStep(random_unitary(rng, 2), (2,)),
            sim.CircuitStep(random_unitary(rng, 4), (2, 0)),
            sim.CircuitStep("SWAP", (1, 2)),
            sim.CircuitStep(sy.cnot(), (1, 0)),
            sim.CircuitStep("SQRT_NOT", (2,)),
        )
        circ = sim.Circuit(QUBIT, 3, steps)
        # Six distinct named gates (SQRT_NOT twice) and three array gates.
        assert calls == {"_unitary": 9, "named_gate": 6, "QuantumState": 0}
        outs = [sim.run_circuit(circ, "010") for _ in range(3)]
        assert calls == {"_unitary": 9, "named_gate": 6, "QuantumState": 3}
        assert all(np.array_equal(o.amplitudes, outs[0].amplitudes) for o in outs)

    def test_each_distinct_gate_coerced_once(self, monkeypatch):
        """Sixty steps over three distinct gates coerce three matrices; a
        repeated gate has only its targets checked, with the same errors."""
        calls = []
        real = sim._square
        monkeypatch.setattr(sim, "_square", lambda *args: calls.append(args) or real(*args))
        u = random_unitary(np.random.default_rng(41), 4)
        layer = (sim.CircuitStep("H", (0,)), sim.CircuitStep(u, (1, 2)), sim.CircuitStep("CNOT", (2, 0)))
        sim.Circuit(QUBIT, 3, layer * 20)
        assert len(calls) == 3
        with pytest.raises(ValueError, match=r"^target index 3 out of range for width 3$"):
            sim.Circuit(QUBIT, 3, layer + (sim.CircuitStep(u, (1, 3)),))
        with pytest.raises(ValueError, match=r"^gate of dimension 4 cannot act on 1 target\(s\) of dimension 2 \(expected 2\)$"):
            sim.Circuit(QUBIT, 3, layer + (sim.CircuitStep(u, (1,)),))
        with pytest.raises(ValueError, match=r"^duplicate target indices \(2, 2\)$"):
            sim.Circuit(QUBIT, 3, layer + (sim.CircuitStep("H", (2, 2)),))

    def test_named_gate_synthesized_once_per_circuit(self, monkeypatch):
        """Ten SQRT_NOT steps synthesize NOT and take its root once; R steps
        with different angles are distinct gates."""
        calls = {"quantize_reversible": 0, "principal_unitary_sqrt": 0}
        for name in calls:
            real = getattr(sy, name)

            def wrapper(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(sy, name, wrapper)
        ququart = en.builtin_encoding("ququart")
        steps = tuple(sim.CircuitStep("SQRT_NOT", (t,)) for t in (0, 0, 1, 1, 1, 1, 2, 2, 2, 2))
        circ = sim.Circuit(ququart, 3, steps)
        assert calls == {"quantize_reversible": 1, "principal_unitary_sqrt": 1}
        assert all(gm is circ._checked[0][0] for gm, _ in circ._checked)
        # Two roots of NOT on subsystem 0 and four on each other one.
        out = sim.run_circuit(circ, "000")
        assert np.allclose(out.amplitudes, en.encode_bits(ququart, "100").amplitudes, atol=1e-12)
        phases = sim.Circuit(QUBIT, 1, (sim.CircuitStep("R", (0,), 0.5), sim.CircuitStep("R", (0,), 0.25)))
        assert np.allclose(sim.run_circuit(phases, "1").amplitudes, [0, np.exp(0.75j)], atol=1e-15)

    def test_checked_matrices_are_copies(self):
        g = sy.hadamard()
        circ = sim.Circuit(QUBIT, 1, (sim.CircuitStep(g, (0,)),))
        g[:] = np.eye(2)
        out = sim.run_circuit(circ, "0")
        assert np.allclose(out.amplitudes, np.array([1, 1]) / np.sqrt(2), atol=1e-15)


class TestCircuitEquality:
    @staticmethod
    def build(gate=None, targets=(0, 1), phi=0.25):
        gate = sy.cnot() if gate is None else gate
        steps = [sim.CircuitStep("H", (0,)), sim.CircuitStep(gate, targets)]
        return sim.Circuit(QUBIT, 2, tuple(steps + [sim.CircuitStep("R", (1,), phi)]))

    def test_identical_builds_equal_and_hash_equal(self):
        a, b = self.build(), self.build()
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a.steps[1] == b.steps[1] and hash(a.steps[1]) == hash(b.steps[1])

    def test_array_gates_compare_by_value(self):
        assert self.build() == self.build(gate=sy.cnot().real.tolist())

    @pytest.mark.parametrize(
        "change",
        [dict(gate=sy.swap()), dict(gate="CNOT"), dict(targets=(1, 0)), dict(phi=0.5)],
    )
    def test_any_difference_makes_unequal(self, change):
        assert self.build() != self.build(**change)

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_compares_by_the_gates_it_runs(self, ndim):
        """A caller's array changed after the build changes neither the
        circuit's equality and hash nor what it runs; matrices and
        trace-action tensors alike."""
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        wrap = (lambda m: la.matrix_to_tensor(m, 2, 1)) if ndim == 3 else (lambda m: m)
        g = wrap(np.eye(2, dtype=complex))
        c = sim.Circuit(QUBIT, 1, (sim.CircuitStep(g, (0,)),))
        g[...] = wrap(x)
        flipped = sim.Circuit(QUBIT, 1, (sim.CircuitStep(wrap(x), (0,)),))
        assert c != flipped and c == sim.Circuit(QUBIT, 1, (sim.CircuitStep(wrap(np.eye(2)), (0,)),))
        assert np.array_equal(sim.run_circuit(c, "0").amplitudes, [1, 0])
        assert np.array_equal(sim.run_circuit(flipped, "0").amplitudes, [0, 1])
        assert not c.steps[0].gate.flags.writeable

    def test_a_shared_array_is_snapshotted_once(self):
        g = sy.hadamard()
        c = sim.Circuit(QUBIT, 2, (sim.CircuitStep(g, (0,)), sim.CircuitStep(g, (1,))))
        assert c.steps[0].gate is c.steps[1].gate is c._checked[0][0] is c._checked[1][0]
        assert c.steps[0].gate is not g

    def test_encoding_and_width_compared(self):
        assert sim.Circuit(QUBIT, 1, ()) == sim.Circuit(QUBIT, 1, ())
        assert sim.Circuit(QUBIT, 1, ()) != sim.Circuit(QUBIT, 2, ())
        assert sim.Circuit(QUBIT, 1, ()) != sim.Circuit(QUTRIT, 1, ())


class TestBasisProbabilities:
    def test_equal_superposition(self):
        s = en.QuantumState(np.array([1, 1j]) / np.sqrt(2), QUBIT, 1)
        probs = sim.basis_probabilities(s)
        assert probs[0][0] == 0 and abs(probs[0][1] - 0.5) <= 1e-12
        assert probs[1][0] == 1 and abs(probs[1][1] - 0.5) <= 1e-12

    def test_basis_state(self):
        probs = sim.basis_probabilities(en.encode_bits(QUBIT, "1"))
        assert probs == [(0, 0.0), (1, 1.0)]

    def test_bell_state(self):
        probs = dict(sim.basis_probabilities(sim.run_circuit(BELL, "00")))
        assert abs(probs[0] - 0.5) <= 1e-12 and abs(probs[3] - 0.5) <= 1e-12
        assert probs[1] <= 1e-12 and probs[2] <= 1e-12

    def test_sums_to_one_and_phase_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            amps = random_complex(rng, (9,))
            s = en.QuantumState(amps, QUTRIT, 2)
            probs = sim.basis_probabilities(s)
            assert abs(sum(p for _, p in probs) - 1) <= 1e-12
            rotated = en.QuantumState(np.exp(1j * rng.uniform(0, 7)) * amps, QUTRIT, 2)
            probs2 = sim.basis_probabilities(rotated)
            assert all(abs(p - q) <= 1e-12 for (_, p), (_, q) in zip(probs, probs2))
