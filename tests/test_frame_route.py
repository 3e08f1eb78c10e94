"""The root of a gate synthesized under a rotated frame, W P W^dagger, taken
as W sqrt(P) W^dagger.  Synthesis builds that array over immutable bytes,
which nothing can make writeable, and records its unitarity residual with
it.  principal_unitary_sqrt takes the frame route only for that very array;
a copy takes the eigen route, which these tests use as the reference.  The
residual, report, unitarity test and root errors read the same on the gate
as on a copy, from one Gram product per gate."""

import gc
import tracemalloc

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


def _outcome(call):
    """call(), or the text of the ValueError it raises."""
    try:
        return call()
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("quantize, enc, f", _gates())
def test_gate_reads_as_its_copy(quantize, enc, f):
    """The recorded residual is the copy's, bit for bit, so the report, the
    unitarity test and the root's errors, at tol = 0 too, are the copy's."""
    gate = quantize(f, enc)
    u, copy = gate.matrix, gate.matrix.copy()
    r = la._unitarity_residual(*la._square(u, "m"))
    assert r > 0.0 and r == la._unitarity_residual(*la._square(copy, "m"))
    for tol in (0.0, np.nextafter(r, 0.0), r, 1e-9):
        assert sy.quantization_report(u, f, enc, tol) == sy.quantization_report(copy, f, enc, tol)
        assert la.is_unitary(u, tol) == la.is_unitary(copy, tol) == (r <= tol)
    for tol in (0.0, np.nextafter(r, 0.0)):
        error = _outcome(lambda: la.principal_unitary_sqrt(u, tol))
        assert error.startswith("principal_unitary_sqrt requires a unitary matrix (residual")
        assert error == _outcome(lambda: la.principal_unitary_sqrt(copy, tol))


@pytest.mark.parametrize("quantize, enc, f", _gates())
def test_one_gram_product_per_gate(quantize, enc, f, monkeypatch):
    """Synthesis, the report, is_unitary and the root on the gate form as
    many Gram strips (two Frobenius norms each) as one residual of a copy."""
    strips = []
    frobenius = la._frobenius
    monkeypatch.setattr(la, "_frobenius", lambda x: strips.append(x) or frobenius(x))
    gate = quantize(f, enc)
    sy.quantization_report(gate.matrix, f, enc, 1e-9)
    assert la.is_unitary(gate.matrix, 1e-9)
    la.principal_unitary_sqrt(gate.matrix)
    pipeline = len(strips)
    strips.clear()
    la._unitarity_residual(*la._square(gate.matrix.copy(), "m"))
    assert pipeline == len(strips) > 0


@pytest.mark.parametrize("quantize, enc, f", _gates())
def test_one_strip_pass_per_gate(quantize, enc, f, monkeypatch):
    """The build's one strip pass (_lone_entries) over the product splits
    the gate for good: synthesis, the report, is_unitary and the root, by
    sqrt_gate too, take no other, where a copy takes one a call."""
    quantize(f, enc)  # fills the layout cache, whose frame check splits the frame
    passes = []
    lone_entries = la._lone_entries
    monkeypatch.setattr(la, "_lone_entries", lambda a: passes.append(a) or lone_entries(a))
    gate = quantize(f, enc)
    assert len(passes) == 1 and passes[0] is gate.matrix
    passes.clear()
    sy.quantization_report(gate.matrix, f, enc, 1e-9)
    assert la.is_unitary(gate.matrix, 1e-9)
    la.principal_unitary_sqrt(gate.matrix)
    sy.sqrt_gate(gate)
    assert passes == []
    copy = gate.matrix.copy()
    sy.quantization_report(copy, f, enc, 1e-9)
    assert la.is_unitary(copy, 1e-9)
    assert len(passes) == 2 and all(p is copy for p in passes)


def test_synthesis_peaks_at_three_matrices():
    """Synthesizing a pauli n=4 gate (256 x 256, 1 MiB) holds P and two
    partial products of the contraction; the copy into immutable bytes is
    made after P is dropped, so it adds no matrix to the peak."""
    f = sy.ClassicalFunction._from_image(4, 4, np.random.default_rng(4).permutation(16))
    sy.quantize_reversible(f, PAULI)
    tracemalloc.start()
    try:
        gate = sy.quantize_reversible(f, PAULI)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * gate.matrix.nbytes


def _pauli_gate(n=3, seed=5):
    f = sy.ClassicalFunction(n, n, random_bijection_table(np.random.default_rng(seed), n))
    return sy.quantize_reversible(f, PAULI)


class TestSoundness:
    def test_changed_array_takes_the_eigen_route(self, monkeypatch):
        gate = _pauli_gate()
        for m in (gate.matrix, gate.matrix[:, :], gate.matrix.T):
            with pytest.raises(ValueError, match="WRITEABLE"):
                m.setflags(write=True)
        u = gate.matrix.copy()
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
        assert la._unitarity_residual(*la._square(u, "m")) > 0.0
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
