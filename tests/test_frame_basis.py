"""classify_state, quantize_reversible and quantization_report work in the
frame basis [basis0 | basis1 | fixed].  These tests hold them to the
per-bit-string Kronecker loops they replace, rebuilt here from
logical_subspace and fixed_complement.  Where the frame is a permutation
matrix, synthesis, verification and the root take index maps instead; those
paths are held to the Kronecker contraction and the eigensolver."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlift import encodings as en
from qlift import io as qio
from qlift import linalg as la
from qlift import synthesis as sy
from helpers import random_bijection_table, random_complex, random_unitary

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _encodings():
    rng = np.random.default_rng(41)
    q, _ = np.linalg.qr(random_complex(rng, (3, 3)))
    out = [en.builtin_encoding(name) for name in en.BUILTIN_ENCODINGS]
    out.append(en.Encoding("rotated", 3, [q[:, 0]], [q[:, 1]], [q[:, 2]]))
    # Two-dimensional logical subspaces together with a fixed direction.
    q, _ = np.linalg.qr(random_complex(rng, (5, 5)))
    out.append(en.Encoding("d5k2", 5, q[:, 0:2], q[:, 2:4], q[:, 4:]))
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


ALIGNED = {"qubit", "qutrit", "ququart", "matrix2", ENCODINGS[-1].name}


def _columns(m):
    return {tuple(c) for c in m.T.tolist()}


def test_label_blocks_pick_the_logical_subspaces(case):
    """The layout flags exactly the permutation frames.  Columns table[x] of
    the identity (ambient indices, under a permutation frame) or of
    frame^(kron n) (frame labels, otherwise) are exactly logical_subspace(x),
    and the columns in no row give fixed_complement's columns, which it
    lists in label order.  The read-only group map sends each column to its
    row, and the columns in no row to 2**n."""
    enc, n = case
    table, aligned, group = en._layout(enc, n)
    assert aligned is (enc.name in ALIGNED)
    assert table.shape == (2**n, enc.bit_dim**n) and not table.flags.writeable
    assert group.shape == (enc.ambient_dim**n,) and not group.flags.writeable
    assert (group[table] == np.arange(2**n)[:, None]).all()
    assert (np.delete(group, table.reshape(-1)) == 2**n).all()
    if aligned:
        basis = np.eye(enc.ambient_dim**n)
    else:
        basis = enc.frame
        for _ in range(n - 1):
            basis = np.kron(basis, enc.frame)
    for x, bits in enumerate(_bit_strings(n)):
        assert np.array_equal(basis[:, table[x]], en.logical_subspace(enc, bits))
    rest = basis[:, np.setdiff1d(np.arange(enc.ambient_dim**n), table)]
    fixed = en.fixed_complement(enc, n)
    assert rest.shape == fixed.shape and _columns(rest) == _columns(fixed)


def test_quantize_matches_reference(case):
    enc, n = case
    rng = np.random.default_rng(n)
    f = sy.ClassicalFunction(n, n, random_bijection_table(rng, n))
    got = sy.quantize_reversible(f, enc).matrix
    assert np.abs(got - reference_quantize(f, enc)).max() <= 1e-14


def test_report_matches_reference(case):
    """Also, where there is a fixed complement, on the gate plus a leak from
    a fixed direction into a logical one only, and plus one from a logical
    direction into a fixed one only."""
    enc, n = case
    rng = np.random.default_rng(100 + n)
    dim = enc.ambient_dim**n
    f = sy.ClassicalFunction(n, n, random_bijection_table(rng, n))
    gate = sy.quantize_reversible(f, enc).matrix
    u = random_unitary(rng, dim)
    matrices = [gate, u, gate + 1e-7 * u, np.eye(dim)]
    fixed = en.fixed_complement(enc, n)
    if fixed.shape[1]:
        a, b = en.logical_subspace(enc, "0" * n)[:, 0], fixed[:, 0]
        matrices += [gate + 1e-3 * np.outer(a, b.conj()), gate + 1e-3 * np.outer(b, a.conj())]
    for m in matrices:
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


@pytest.mark.parametrize(
    "case",
    [(enc, n) for enc in ENCODINGS if enc.name in ALIGNED | {"pauli"} for n in (1, 2, 3)],
    ids=_case_id,
)
def test_classify_at_tol_zero(case):
    """At tol 0 a state spread over two words reads superposition, never
    outside_code, and under a permutation frame a state inside one word's
    subspace reads logical: each verdict sums the mass outside a group, with
    no 1 - tol comparison to round the last bit either way."""
    enc, n = case
    rng = np.random.default_rng(400 + n)
    a = en.encode_bits(enc, "0" * n).amplitudes
    b = en.encode_bits(enc, "1" * n).amplitudes
    ones = en.logical_subspace(enc, "1" * n)
    for _ in range(50):
        c, d = random_complex(rng, (2,))
        s = en.QuantumState(c * a + d * b, enc, n)
        assert en.classify_state(enc, s, 0.0).kind is en.StateKind.SUPERPOSITION
        if enc.name in ALIGNED:
            s = en.QuantumState(ones @ random_complex(rng, (ones.shape[1],)), enc, n)
            assert en.classify_state(enc, s, 0.0) == en.StateClassification(en.StateKind.LOGICAL, "1" * n)


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


# An aligned frame [e1 | e2 | e0], a 3-cycle rather than the identity, with a
# fixed direction.
SHIFTED = en.Encoding("shifted", 3, [[0, 1, 0]], [[0, 0, 1]], [[1, 0, 0]])
QUTRIT_LIKE = ENCODINGS[-1]
PERMUTATION_FRAMES = [en.builtin_encoding(name) for name in en.BUILTIN_ENCODINGS] + [QUTRIT_LIKE, SHIFTED]


def _negated(enc):
    """enc with every frame vector negated: the same subspaces, so the same
    gates and reports, but no permutation frame, so synthesis and
    verification take the Kronecker contraction."""
    return en.Encoding(enc.name, enc.ambient_dim, -enc.basis0, -enc.basis1, -enc.fixed)


def _residuals(report):
    return [report.unitarity_residual, report.complement_residual or 0.0] + [
        c.residual for c in report.subspace_checks
    ]


@given(st.sampled_from(PERMUTATION_FRAMES), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_permutation_frames_match_the_dense_paths(enc, n, seed):
    """Random bijections: the scattered gate equals the contracted one, the
    gathered report's residuals those of the contraction, on the gate and a
    Givens-corrupted copy, and the cycle root Q^dagger root(Q P Q^dagger) Q,
    which takes the eigen route."""
    assert (la._permutation(*la._square(enc.frame, "m")) is None) == (enc.name == "pauli")
    assert la._permutation(*la._square(_negated(enc).frame, "m")) is None
    rng = np.random.default_rng(seed)
    f = sy.ClassicalFunction(n, n, random_bijection_table(rng, n))
    gate = sy.quantize_reversible(f, enc).matrix
    assert np.array_equal(gate, sy.quantize_reversible(f, _negated(enc)).matrix)

    i, j = rng.choice(len(gate), 2, replace=False)
    c, s = np.cos(0.3), np.sin(0.3)
    bad = gate.copy()
    bad[:, [i, j]] = gate[:, [i, j]] @ np.array([[c, -s], [s, c]])
    for u in (gate, bad):
        fast = sy.quantization_report(u, f, enc, 1e-9)
        dense = sy.quantization_report(u, f, _negated(enc), 1e-9)
        assert np.abs(np.subtract(_residuals(fast), _residuals(dense))).max() <= 1e-15
        assert fast.failures() == dense.failures()

    q = random_unitary(rng, len(gate))
    expected = q.conj().T @ la.principal_unitary_sqrt(q @ gate @ q.conj().T) @ q
    assert np.abs(la.principal_unitary_sqrt(gate) - expected).max() <= 1e-12


def test_ququart_n5_holds_about_one_matrix_per_step():
    """At ququart n=5 (d^n = 1024, 16 MiB a matrix) synthesis holds the one
    gate it hands over, and the report, on the gate or a corrupted copy,
    little beyond u itself, as its leak pass squares one strip of rows at
    a time; the Kronecker route took four and two matrices."""
    enc = en.builtin_encoding("ququart")
    f = sy.ClassicalFunction(5, 5, random_bijection_table(np.random.default_rng(9), 5))
    tracemalloc.start()
    try:
        gate = sy.quantize_reversible(f, enc)
        synthesis_peak = tracemalloc.get_traced_memory()[1]
        bad = gate.matrix.copy()
        bad[:, [0, 40]] = bad[:, [40, 0]] * np.array([0.6, 0.8])
        report_peaks = []
        for u in (gate.matrix, bad):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sy.quantization_report(u, f, enc, 1e-9)
            report_peaks.append(tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    nbytes = gate.matrix.nbytes
    assert synthesis_peak <= 1.25 * nbytes
    assert max(report_peaks) <= 1.25 * nbytes


def test_ququart_n5_strip_pass_adds_a_tenth_of_a_matrix():
    """The one strip pass of _square over a ququart n=5 gate (1024 x 1024,
    16 MiB) holds its bool mask, 1/16 of the matrix, and one strip's
    temporaries: at most 0.1 of a matrix."""
    f = sy.ClassicalFunction(5, 5, random_bijection_table(np.random.default_rng(9), 5))
    u = sy.quantize_reversible(f, en.builtin_encoding("ququart")).matrix
    tracemalloc.start()
    try:
        _, (rows, _) = la._square(u, "m")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == len(u)
    assert peak <= 0.1 * u.nbytes


LONE_ROUTE = [en.builtin_encoding(name) for name in ("qubit", "qutrit", "ququart", "matrix2")] + [QUTRIT_LIKE]


def _split_counter(monkeypatch):
    """Wrap _lone_entries, the strip pass that _square makes over a matrix
    it has no recorded split for; the list returned collects the matrix of
    every pass."""
    calls = []

    def counted(a):
        calls.append(a)
        return lone_entries(a)

    lone_entries = la._lone_entries
    monkeypatch.setattr(la, "_lone_entries", counted)
    return calls


@pytest.mark.parametrize("enc", LONE_ROUTE + [SHIFTED], ids=lambda enc: enc.name)
def test_report_splits_once_under_a_permutation_frame(enc, monkeypatch):
    """The unitarity residual and the leak pass share the split of one
    strip pass over u, whether u is the gate, a Givens-corrupted copy or
    dense."""
    rng = np.random.default_rng(17)
    f = sy.ClassicalFunction(3, 3, random_bijection_table(rng, 3))
    gate = sy.quantize_reversible(f, enc).matrix
    bad = gate.copy()
    bad[:, [0, 1]] = gate[:, [0, 1]] @ np.array([[0.8, -0.6], [0.6, 0.8]])
    calls = _split_counter(monkeypatch)
    for u in (gate, bad, random_unitary(rng, len(gate))):
        calls.clear()
        sy.quantization_report(u, f, enc, 1e-9)
        assert len(calls) == 1 and calls[0] is u


def test_pauli_report_takes_the_strip_pass_over_the_rotated_matrix(monkeypatch):
    """Under a rotated frame only the unitarity residual needs u's split,
    and the synthesized gate takes no strip pass at all, as its split and
    residual were recorded when it was built; a copy takes one.  The leak
    pass reads W^dagger u W whole, row strip by row strip."""
    enc = en.builtin_encoding("pauli")
    rng = np.random.default_rng(18)
    f = sy.ClassicalFunction(2, 2, random_bijection_table(rng, 2))
    gate = sy.quantize_reversible(f, enc).matrix
    calls = _split_counter(monkeypatch)
    rotated = []

    def contraction(mats, x):
        rotated.append(kron_apply(mats, x))
        return rotated[-1]

    kron_apply = sy._kron_apply
    monkeypatch.setattr(sy, "_kron_apply", contraction)
    report = sy.quantization_report(gate, f, enc, 1e-9)
    assert calls == []
    copy = gate.copy()
    assert sy.quantization_report(copy, f, enc, 1e-9) == report
    assert len(calls) == 1 and calls[0] is copy
    assert len(rotated) == 2
    c = rotated[0].reshape(len(gate), -1)
    # W^dagger u W of a synthesized gate is a permutation matrix up to
    # rounding, so its entries off the permutation are not exactly 0: the
    # lone route would not apply to it.
    assert len(la._lone_entries(c)[0]) < len(c)
    _, _, group = en._layout(enc, 2)
    mass = np.abs(c) ** 2
    mass[group[:, None] == np.append(f.image, 4)[group]] = 0.0
    expected = np.sqrt(np.bincount(group, mass.sum(axis=0), minlength=5))
    assert _residuals(report)[2:] == pytest.approx(expected[:4].tolist(), rel=1e-12, abs=1e-15)


def _reference_groups(enc, n):
    """Ambient index -> bit string number (2**n for the fixed complement),
    read off the unit columns of logical_subspace."""
    group = np.full(enc.ambient_dim**n, 2**n)
    for x, bits in enumerate(_bit_strings(n)):
        group[np.abs(en.logical_subspace(enc, bits)).argmax(axis=0)] = x
    return group


@st.composite
def lone_route_inputs(draw):
    """(encoding, f, u, p, lone_only): u is the gate of a random bijection f
    at d^n <= 256, or a variant of it, times 2**p."""
    enc = draw(st.sampled_from(LONE_ROUTE))
    top = int(np.log(256.5) / np.log(enc.ambient_dim))
    n = draw(st.integers(1, top))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = sy.ClassicalFunction(n, n, random_bijection_table(rng, n))
    u = sy.quantize_reversible(f, enc).matrix.copy()
    dim = len(u)
    i, j = rng.choice(dim, 2, replace=False)
    kind = draw(st.sampled_from(["gate", "givens", "stretch", "wrong group", "dense"]))
    if kind == "givens":
        t = rng.uniform(0.1, 1.5)
        u[:, [i, j]] = u[:, [i, j]] @ np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    elif kind == "stretch":
        u[:, i] *= rng.uniform(0.5, 2.0)
    elif kind == "wrong group":
        # Columns i and j trade their ones, so both leave their target group
        # when their targets differ.
        target = np.append(f.image, 2**n)[_reference_groups(enc, n)]
        j = rng.choice(np.flatnonzero(target != target[i]))
        u[:, [i, j]] = u[:, [j, i]]
    elif kind == "dense":
        u = random_unitary(rng, dim)
    p = draw(st.sampled_from([0, 300, -300]))
    return enc, f, u * 2.0**p, p, kind not in ("givens", "dense")


@given(lone_route_inputs())
@settings(max_examples=150, deadline=None)
def test_lone_route_matches_a_direct_reference(case):
    """Every residual and the verdict equal those of masked |u_ij|^2 summed
    by group, and of u^dagger u - I formed whole, exactly where every
    column is lone."""
    enc, f, u, p, lone_only = case
    n = f.arity_in
    group = _reference_groups(enc, n)
    mass = np.abs(u) ** 2
    mass[group[:, None] == np.append(f.image, 2**n)[group]] = 0.0
    leaks = np.sqrt(np.bincount(group, mass.sum(axis=0), minlength=2**n + 1))
    # u^dagger u - I = 4**k (v^dagger v - 4**-k I) for v = 2**-k u, whose
    # Gram matrix stays inside the double range for k = max(p, 0).
    k = max(p, 0)
    v = u * 2.0**-k
    # Its squared entries are summed with one rounding (math.fsum): a BLAS
    # dot adds them in an order, and may fuse them, as its kernel chooses.
    gram = v.conj().T @ v - 4.0**-k * np.eye(len(u))
    unitarity = math.sqrt(math.fsum((gram.view(np.float64) ** 2).ravel().tolist())) * 4.0**k
    expected = [unitarity, float(leaks[-1]) if enc.fixed.shape[1] else 0.0, *leaks[:-1].tolist()]

    report = sy.quantization_report(u, f, enc, 1e-9)
    got = _residuals(report)
    if lone_only:
        assert got == expected
    else:
        assert got[1:] == pytest.approx(expected[1:], rel=1e-15)
        assert got[0] == pytest.approx(expected[0], rel=1e-15, abs=1e-13 * 4.0**p)
    assert report.ok == all(x <= 1e-9 for x in expected)
    assert (report.complement_residual is None) == (enc.fixed.shape[1] == 0)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("width", [2, 5, 512])
def test_partly_lone_report_sums_as_the_strip_pass_over_all_columns(width, order):
    """At ququart n=5 the leak pass takes 16 row strips.  With width columns
    mixed, the rest lone, the report's residuals are bit for bit those of
    the strip pass over every column of u, the pass a dense u takes, in
    either memory order of u."""
    enc = en.builtin_encoding("ququart")
    rng = np.random.default_rng(width)
    f = sy.ClassicalFunction(5, 5, random_bijection_table(rng, 5))
    u = sy.quantize_reversible(f, enc).matrix.copy()
    cols = rng.choice(len(u), width, replace=False)
    u[:, cols] = u[:, cols] @ random_unitary(rng, width)
    u = np.asarray(u, order=order)
    _, _, group = en._layout(enc, 5)
    target = np.append(f.image, 32)[group]
    leak = np.zeros(len(u))
    for i in range(0, len(u), 64):
        sq = np.abs(u[i : i + 64])
        sq *= sq
        sq[group[i : i + 64, None] == target] = 0.0
        leak += sq.sum(axis=0)
    expected = np.sqrt(np.bincount(group, leak, minlength=33))
    report = sy.quantization_report(u, f, enc, 1e-9)
    assert [c.residual for c in report.subspace_checks] == expected[:32].tolist()
    assert not report.ok
