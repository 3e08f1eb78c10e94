"""The root of a gate synthesized under a rotated frame, W P W^dagger, taken
as W sqrt(P) W^dagger.  principal_unitary_sqrt takes that route only for the
very array synthesis built, and only when a rebuild from synthesis's record
matches it bit for bit; a copy takes the eigen route, which these tests use
as the reference."""

import gc

import numpy as np
import pytest

from qlift import encodings as en
from qlift import linalg as la
from qlift import synthesis as sy
from helpers import random_bijection_table, random_complex

PAULI = en.builtin_encoding("pauli")
AND = sy.ClassicalFunction.from_pairs({"00": "0", "01": "0", "10": "0", "11": "1"})


def _rotated_with_fixed_direction():
    q, _ = np.linalg.qr(random_complex(np.random.default_rng(41), (5, 5)))
    return en.Encoding("d5k2", 5, q[:, 0:2], q[:, 2:4], q[:, 4:])


ROTATED = _rotated_with_fixed_direction()


def _gates():
    """(quantize, encoding, function) for pauli bijections at n = 1..4, a
    rotated encoding with a fixed direction, and two pauli XOR closures."""
    rng = np.random.default_rng(20)
    out = []
    for n in range(1, 5):
        out.append(pytest.param(PAULI, sy.ClassicalFunction(n, n, random_bijection_table(rng, n)), id=f"pauli-random-n{n}"))
        out.append(pytest.param(PAULI, sy.ClassicalFunction.identity(n), id=f"pauli-identity-n{n}"))
        # Every label lies on a 2-cycle: eigenvalues -1, whose root is +i.
        two_cycles = sy.ClassicalFunction._from_image(n, n, np.arange(2**n) ^ 1)
        out.append(pytest.param(PAULI, two_cycles, id=f"pauli-two-cycles-n{n}"))
    for n in range(1, 4):
        out.append(pytest.param(ROTATED, sy.ClassicalFunction(n, n, random_bijection_table(rng, n)), id=f"d5k2-n{n}"))
    out = [pytest.param(sy.quantize_reversible, *p.values, id=p.id) for p in out]
    out.append(pytest.param(sy.quantize_irreversible, PAULI, sy.ClassicalFunction.negation(), id="pauli-xor-1-1"))
    out.append(pytest.param(sy.quantize_irreversible, PAULI, AND, id="pauli-xor-2-1"))
    return out


def _no_eigensolver(*args, **kwargs):
    raise AssertionError("the frame route runs no eigensolver")


def _without_eigensolver(monkeypatch, make):
    """make(), with np.linalg's Hermitian eigensolvers patched to raise."""
    with monkeypatch.context() as patch:
        for name in ("eigh", "eigvalsh"):
            patch.setattr(np.linalg, name, _no_eigensolver)
        return make()


def _assert_matches_eigen_route(w, u):
    """w agrees with the eigen-route root of u (taken on a copy) entrywise to
    1e-13 and squares back to u no worse than it does."""
    eigen = la.principal_unitary_sqrt(u.copy())
    assert np.abs(w - eigen).max() <= 1e-13
    assert np.linalg.norm(w @ w - u) <= np.linalg.norm(eigen @ eigen - u)


@pytest.mark.parametrize("quantize, enc, f", _gates())
def test_frame_route_matches_the_eigen_route(quantize, enc, f, monkeypatch):
    u = quantize(f, enc).matrix
    _assert_matches_eigen_route(_without_eigensolver(monkeypatch, lambda: la.principal_unitary_sqrt(u)), u)


def test_two_cycles_root_minus_one_to_plus_i():
    """Under the all-2-cycles map the root's eigenvalues are 1 and +i only."""
    u = sy.quantize_reversible(sy.ClassicalFunction._from_image(2, 2, np.arange(4) ^ 1), PAULI).matrix
    phases = np.linalg.eigvals(la.principal_unitary_sqrt(u))
    assert np.abs(phases - np.where(phases.imag > 0.5, 1j, 1.0)).max() <= 1e-13
    assert (phases.imag > 0.5).sum() == 8


def test_named_sqrt_not_under_pauli(monkeypatch):
    w = _without_eigensolver(monkeypatch, lambda: sy.named_gate("SQRT_NOT", PAULI))
    _assert_matches_eigen_route(w, sy.named_gate("NOT", PAULI))


def _pauli_gate(n=3, seed=5):
    f = sy.ClassicalFunction(n, n, random_bijection_table(np.random.default_rng(seed), n))
    return sy.quantize_reversible(f, PAULI)


class TestSoundness:
    def test_changed_array_takes_the_eigen_route(self, monkeypatch):
        gate = _pauli_gate()
        u = gate.matrix
        u.setflags(write=True)
        u[3, 5] += 1e-12
        assert np.array_equal(la.principal_unitary_sqrt(u), la.principal_unitary_sqrt(u.copy()))
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", _no_eigensolver)
            with pytest.raises(AssertionError, match="no eigensolver"):
                la.principal_unitary_sqrt(u)

    def test_hand_made_gate_on_another_gates_matrix_squares_back(self):
        gate = _pauli_gate()
        other = sy.SynthesizedGate(gate.matrix, PAULI, gate.source)
        assert other.matrix is gate.matrix
        w = sy.sqrt_gate(other)
        assert np.linalg.norm(w @ w - gate.matrix) <= 1e-13
        copied = sy.SynthesizedGate(gate.matrix.copy(), PAULI, gate.source)
        assert np.array_equal(sy.sqrt_gate(copied), la.principal_unitary_sqrt(gate.matrix.copy()))

    def test_tol_zero_raises_as_for_a_copy(self):
        u = _pauli_gate().matrix
        assert la._unitarity_residual(u) > 0.0
        errors = []
        for m in (u, u.copy()):
            with pytest.raises(ValueError, match="requires a unitary matrix") as err:
                la.principal_unitary_sqrt(m, tol=0)
            errors.append(str(err.value))
        assert errors[0] == errors[1]

    def test_copies_and_views_take_the_eigen_route(self, monkeypatch):
        u = _pauli_gate().matrix
        monkeypatch.setattr(np.linalg, "eigh", _no_eigensolver)
        for m in (u.copy(), u[:, :], np.asfortranarray(u)):
            with pytest.raises(AssertionError, match="no eigensolver"):
                la.principal_unitary_sqrt(m)

    def test_table_drops_dead_gates(self):
        gc.collect()
        size = len(la._FRAMED)
        gates = [_pauli_gate(n, seed) for n in (1, 2, 3) for seed in range(3)]
        gates += [sy.quantize_irreversible(AND, ROTATED)]
        assert len(la._FRAMED) == size + len(gates)
        for g in gates:
            sy.sqrt_gate(g)
        del gates, g
        gc.collect()
        assert len(la._FRAMED) == size

    def test_permutation_frames_record_nothing(self):
        size = len(la._FRAMED)
        names = ("qubit", "qutrit", "ququart")
        gates = [sy.quantize_reversible(sy.ClassicalFunction.negation(), en.builtin_encoding(name)) for name in names]
        gates.append(_pauli_gate())
        assert len(la._FRAMED) == size + 1
