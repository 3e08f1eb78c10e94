"""classify_state, quantize_reversible and quantization_report work in the
frame basis [basis0 | basis1 | fixed].  These tests hold them to the
per-bit-string Kronecker loops they replace, rebuilt here from
logical_subspace and fixed_complement."""

import os

import numpy as np
import pytest

from qlift import encodings as en
from qlift import io as qio
from qlift import synthesis as sy
from helpers import random_bijection_table, random_complex, random_unitary

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _encodings():
    rng = np.random.default_rng(41)
    q, _ = np.linalg.qr(random_complex(rng, (3, 3)))
    out = [en.builtin_encoding(name) for name in en.BUILTIN_ENCODINGS]
    out.append(en.Encoding("rotated", 3, [q[:, 0]], [q[:, 1]], [q[:, 2]]))
    with open(os.path.join(FIXTURES, "qutrit_like.enc"), encoding="utf-8") as fh:
        out.append(qio.parse_encoding_file(fh.read()))
    return out


ENCODINGS = _encodings()
CASES = [(enc, n) for enc in ENCODINGS for n in range(1, 5)]


def _case_id(case):
    enc, n = case
    return f"{enc.name}-n{n}"


def _bit_strings(n):
    return [format(i, f"0{n}b") for i in range(2**n)]


def _outside(image, target):
    return float(np.linalg.norm(image - target @ (target.conj().T @ image)))


def reference_quantize(f, enc):
    n = f.arity_in
    dim = enc.ambient_dim**n
    gate = np.zeros((dim, dim), dtype=complex)
    for bits in _bit_strings(n):
        gate += en.logical_subspace(enc, f(bits)) @ en.logical_subspace(enc, bits).conj().T
    comp = en.fixed_complement(enc, n)
    return gate + comp @ comp.conj().T


def reference_report(u, f, enc):
    """[(bits_in, bits_out, residual)] and the complement residual (or None)."""
    n = f.arity_in
    checks = [
        (bits, f(bits), _outside(u @ en.logical_subspace(enc, bits), en.logical_subspace(enc, f(bits))))
        for bits in _bit_strings(n)
    ]
    comp = en.fixed_complement(enc, n)
    return checks, (_outside(u @ comp, comp) if comp.shape[1] else None)


def reference_classify(enc, s, tol):
    psi = s.normalized()
    weights = [
        float(np.linalg.norm(en.logical_subspace(enc, bits).conj().T @ psi) ** 2)
        for bits in _bit_strings(s.subsystem_count)
    ]
    best = int(np.argmax(weights))
    if weights[best] >= 1.0 - tol:
        return en.StateClassification(en.StateKind.LOGICAL, _bit_strings(s.subsystem_count)[best])
    if sum(weights) < 1.0 - tol:
        return en.StateClassification(en.StateKind.OUTSIDE_CODE)
    return en.StateClassification(en.StateKind.SUPERPOSITION)


@pytest.fixture(params=CASES, ids=_case_id)
def case(request):
    return request.param


def test_quantize_matches_reference(case):
    enc, n = case
    rng = np.random.default_rng(n)
    f = sy.ClassicalFunction(n, n, random_bijection_table(rng, n))
    got = sy.quantize_reversible(f, enc).matrix
    assert np.abs(got - reference_quantize(f, enc)).max() <= 1e-14


def test_report_matches_reference(case):
    enc, n = case
    rng = np.random.default_rng(100 + n)
    dim = enc.ambient_dim**n
    f = sy.ClassicalFunction(n, n, random_bijection_table(rng, n))
    gate = sy.quantize_reversible(f, enc).matrix
    u = random_unitary(rng, dim)
    for m in (gate, u, gate + 1e-7 * u, np.eye(dim)):
        report = sy.quantization_report(m, f, enc, 1e-9)
        checks, comp = reference_report(m, f, enc)
        assert [(c.bits_in, c.bits_out) for c in report.subspace_checks] == [c[:2] for c in checks]
        for c, (_, _, residual) in zip(report.subspace_checks, checks):
            assert abs(c.residual - residual) <= 1e-12
            assert c.ok is (c.residual <= 1e-9)
        assert (report.complement_residual is None) == (comp is None)
        if comp is not None:
            assert abs(report.complement_residual - comp) <= 1e-12


def test_classify_matches_reference(case):
    enc, n = case
    rng = np.random.default_rng(200 + n)
    dim = enc.ambient_dim**n
    a = en.encode_bits(enc, "0" * n).amplitudes
    b = en.encode_bits(enc, "1" * n).amplitudes
    states = [random_complex(rng, (dim,)), a + b, a + 1e-6 * b, a + 0.1 * random_complex(rng, (dim,))]
    for amps in states:
        s = en.QuantumState(amps, enc, n)
        for tol in (1e-9, 1e-3):
            assert en.classify_state(enc, s, tol) == reference_classify(enc, s, tol)


class TestSixteenQubits:
    Q = en.builtin_encoding("qubit")

    def test_logical(self):
        bits = "0110100110010110"
        amps = np.zeros(2**16, dtype=complex)
        amps[int(bits, 2)] = 1j
        got = en.classify_state(self.Q, en.QuantumState(amps, self.Q, 16), 1e-9)
        assert got == en.StateClassification(en.StateKind.LOGICAL, bits)

    def test_superposition(self):
        amps = np.zeros(2**16, dtype=complex)
        amps[[3, 2**16 - 1]] = [1, 1]
        got = en.classify_state(self.Q, en.QuantumState(amps, self.Q, 16), 1e-9)
        assert got.kind is en.StateKind.SUPERPOSITION


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_gate_times_in_subspace_unitary_verifies(n):
    """G V still realizes f when V mixes only directions inside each input's
    logical subspace."""
    enc = en.builtin_encoding("pauli")
    rng = np.random.default_rng(300 + n)
    f = sy.ClassicalFunction(n, n, random_bijection_table(rng, n))
    v = sum(
        basis @ random_unitary(rng, basis.shape[1]) @ basis.conj().T
        for basis in (en.logical_subspace(enc, bits) for bits in _bit_strings(n))
    )
    report = sy.quantization_report(sy.quantize_reversible(f, enc).matrix @ v, f, enc, 1e-9)
    assert report.ok
    assert max(c.residual for c in report.subspace_checks) <= 1e-12
