#!/usr/bin/env python3
"""Numeric fingerprint of the library, for checking that a change keeps its
numbers bit for bit: the counterpart of cli_transcript.py for the numerics.

Runs svd, schmidt, principal_unitary_sqrt, quantization_report and
classify_state over a seeded corpus of a few hundred inputs and prints one
sha256 line per routine, taken over the exact bytes of every result (the
floats of a report or a classification by their repr).  The svd corpus
holds random, low-rank and row- or column-graded inputs down to 1e-300,
whose sweeps reach the Jacobi floor, the three range-end inputs of the
scale contract and inputs on both sides of LAPACK's 25-column switch.  The
sqrt corpus holds gates synthesized under rotated frames, which take the
frame route as built and the eigen route as copies.  The checks corpus
runs the root, is_unitary and quantization_report on inputs that the
square-matrix check must reject or split: NaN, Inf, non-square, empty and
wrongly ranked input, Fortran-ordered and strided layouts, permutations and
near-permutations, digesting each value or error text.  The circuits
corpus runs circuits and apply_gate under every built-in encoding, with
named, R, array, trace-action tensor and controlled gates, and digests the
error text of each bad step.  Two fingerprints
differ only on the routines whose output changed in some bit:

    PYTHONPATH=src python scripts/numeric_fingerprint.py > after.txt
    diff before.txt after.txt
"""

import hashlib
import math

import numpy as np

from qlift import (
    BUILTIN_ENCODINGS,
    NAMED_GATES,
    Circuit,
    CircuitStep,
    ClassicalFunction,
    Encoding,
    QuantumState,
    apply_gate,
    builtin_encoding,
    classify_state,
    controlled,
    encode_bits,
    is_unitary,
    matrix_to_tensor,
    named_gate,
    principal_unitary_sqrt,
    quantization_report,
    quantize_irreversible,
    quantize_reversible,
    run_circuit,
    schmidt,
    svd,
)

SEED = 20131


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def svd_inputs(rng):
    """Random shapes up to 12 x 12, low rank, graded rows or columns down to
    1e-300, two larger inputs, the range ends and four inputs above 25
    columns, where LAPACK's SVD switches from QR iteration to divide and
    conquer: 32x32 rank 1, 40x40 rank 3, 64x16 rank 4 and a random 30x30.
    The last four come from their own stream, so the other corpora stay as
    they were."""
    out = []
    for _ in range(120):
        out.append(random_complex(rng, rng.integers(1, 13, size=2)))
    for _ in range(60):
        rows, cols = rng.integers(2, 13, size=2)
        k = int(rng.integers(1, min(rows, cols) + 1))
        out.append(random_complex(rng, (rows, k)) @ random_complex(rng, (k, cols)))
    for axis in (0, 1):
        for _ in range(60):
            shape = rng.integers(2, 13, size=2)
            grades = 10.0 ** np.concatenate([[0.0], rng.uniform(-300, 0, shape[axis] - 1)])
            out.append(random_complex(rng, shape) * (grades[:, None] if axis == 0 else grades))
    out += [random_complex(rng, (32, 32)), random_complex(rng, (64, 16))]
    out += [
        np.array([[5e-324, 0], [0, 2e-320]]),
        np.array([[1e300, 1], [1e-300, 2]]),
        np.array([[1.7e308, 0], [0, 5e-324]]),
    ]
    large = np.random.default_rng(SEED + 1)
    for rows, cols, k in ((32, 32, 1), (40, 40, 3), (64, 16, 4)):
        out.append(random_complex(large, (rows, k)) @ random_complex(large, (k, cols)))
    out.append(random_complex(large, (30, 30)))
    return out


def schmidt_inputs(rng):
    """(state, dim_a, dim_b): random, product and one-sided splits, scaled."""
    out = []
    for _ in range(60):
        a, b = (int(k) for k in rng.integers(1, 9, size=2))
        out.append((random_complex(rng, a * b) * 10.0 ** rng.uniform(-300, 300), a, b))
    for _ in range(20):
        a, b = (int(k) for k in rng.integers(2, 7, size=2))
        out.append((np.kron(random_complex(rng, a), random_complex(rng, b)), a, b))
    return out


def sqrt_inputs(rng):
    """Random unitaries, permutations and unitaries with eigenvalue -1, then
    gates synthesized under rotated frames, each as built and as a copy:
    random bijections under pauli at n = 1..3 and under d5k2, a random
    5-dim encoding with a fixed direction, at n = 1..2.  The gates come from
    their own stream, so the other corpora stay as they were."""
    out = [random_unitary(rng, int(rng.integers(1, 17))) for _ in range(40)]
    out += [np.eye(n)[:, rng.permutation(n)] for n in rng.integers(1, 17, size=20)]
    for n in rng.integers(2, 9, size=10):
        q = random_unitary(rng, n)
        out.append((q * np.where(np.arange(n) % 2, -1.0, 1.0)) @ q.conj().T)
    gates = np.random.default_rng(SEED + 2)
    q = random_unitary(gates, 5)
    rotated = Encoding("d5k2", 5, q[:, 0:2], q[:, 2:4], q[:, 4:])
    for enc, widths in ((builtin_encoding("pauli"), (1, 2, 3)), (rotated, (1, 2))):
        for n in widths:
            words = [format(i, f"0{n}b") for i in range(2**n)]
            f = ClassicalFunction(n, n, dict(zip(words, gates.permutation(words))))
            m = quantize_reversible(f, enc).matrix
            out += [m, m.copy()]
    return out


def report_inputs(rng):
    """(matrix, f, encoding, tol): synthesized gates, as built and perturbed."""
    out = []
    for name in BUILTIN_ENCODINGS:
        enc = builtin_encoding(name)
        for arity in (1, 2):
            for _ in range(3):
                words = [format(i, f"0{arity}b") for i in range(2**arity)]
                f = ClassicalFunction(arity, arity, dict(zip(words, rng.permutation(words))))
                m = quantize_reversible(f, enc).matrix
                out.append((m, f, enc, 1e-9))
                out.append((m + 1e-6 * random_complex(rng, m.shape), f, enc, 1e-9))
        g = ClassicalFunction.constant(1, "0")
        out.append((quantize_irreversible(g, enc).matrix, g, enc, 0.0))
    return out


def state_inputs(rng):
    """(encoding, state, tol): code words, superpositions and random states."""
    out = []
    for name in BUILTIN_ENCODINGS:
        enc = builtin_encoding(name)
        d = enc.ambient_dim
        for n in (1, 2, 3):
            bits = "".join(rng.choice(["0", "1"], size=n))
            word = encode_bits(enc, bits)
            out.append((enc, word, 0.0))
            out.append((enc, word, 1e-15))
            other = encode_bits(enc, "".join("1" if b == "0" else "0" for b in bits))
            out.append((enc, QuantumState(word.amplitudes + 1e-3 * other.amplitudes, enc, n), 1e-4))
            out.append((enc, QuantumState(random_complex(rng, d**n), enc, n), 1e-9))
    return out


def check_inputs():
    """(matrix, f, encoding): permutations of dimension 4 to 64 and
    synthesized permutation-frame gates, each also Fortran-ordered and as a
    reversed view; near-permutations (an entry 1 + 2**-52, a column scaled
    by 1 - 1e-10, a 1e-12 perturbation, a zeroed entry); random unitaries;
    NaN or Inf in either part, in square and non-square input; finite
    non-square, empty and wrongly ranked input.  f and the encoding match
    the dimension where one exists, so the report runs in full.  They come
    from their own stream, so the other corpora stay as they were."""
    rng = np.random.default_rng(SEED + 3)
    qubit, ququart = builtin_encoding("qubit"), builtin_encoding("ququart")
    out = []

    def add(m, n):
        words = [format(i, f"0{n}b") for i in range(2**n)]
        out.append((m, ClassicalFunction(n, n, dict(zip(words, rng.permutation(words)))), qubit))

    for n in (2, 3, 4, 6):
        p = np.eye(2**n)[:, rng.permutation(2**n)]
        one = np.argmax(p[:, 0])  # the row of column 0's one entry
        near = [p.copy() for _ in range(4)]
        near[0][one, 0] = 1.0 + 2.0**-52
        near[1][:, 0] *= 1.0 - 1e-10
        near[2] = p + 1e-12 * random_complex(rng, p.shape)
        near[3][one, 0] = 0.0
        for m in [p, np.asfortranarray(p), p[::-1, ::-1], 1j * p, *near, random_unitary(rng, 2**n)]:
            add(m, n)
    for enc, n in ((qubit, 2), (ququart, 1), (ququart, 2)):
        words = [format(i, f"0{n}b") for i in range(2**n)]
        f = ClassicalFunction(n, n, dict(zip(words, rng.permutation(words))))
        g = quantize_reversible(f, enc).matrix
        out += [(g, f, enc), (np.asfortranarray(g), f, enc), (g.T[::-1], f, enc)]
    for bad in (np.nan, complex(0.0, np.nan), np.inf, complex(0.0, -np.inf)):
        for shape in ((4, 4), (3, 5), (70, 3)):
            m = random_complex(rng, shape)
            m[tuple(rng.integers(0, shape))] = bad
            add(m, 2)
            add(np.asfortranarray(m), 2)
    for m in (np.eye(2, 3), random_complex(rng, (4, 8)), np.zeros((0, 0)), np.zeros((0, 4)), np.ones(4), np.ones((2, 2, 2))):
        add(m, 2)
    return out


def run_steps(enc, width, steps, bits):
    return run_circuit(Circuit(enc, width, steps), bits)


def circuit_inputs():
    """(call, *args) for run_steps or apply_gate.  Under each built-in
    encoding: circuits of 12 random steps at widths 2 and 3 (up to 64
    amplitudes) over every named gate that fits the ambient dimension d, R
    at a random angle, random unitaries on one to `width` targets as
    matrices and as trace-action tensors, and controlled gates where 4 is a power of
    d; apply_gate on random states; and a good step followed by a bad one:
    non-square, NaN, non-unitary, a target out of range, repeated or not an
    integer, the wrong target count, R without an angle, H with one, and two
    faults in one step.  They come from their own stream, so the other
    corpora stay as they were."""
    rng = np.random.default_rng(SEED + 4)
    out = []
    for name in BUILTIN_ENCODINGS:
        enc = builtin_encoding(name)
        d = enc.ambient_dim

        def random_step(width):
            """A random gate that fits d and the width, on random targets."""
            u = random_unitary(rng, d ** int(rng.integers(1, width + 1)))
            gates = [(u, None), (matrix_to_tensor(u, d, len(u) // d), None), ("R", float(rng.uniform(-4, 4)))]
            gates += [(g, None) for g in NAMED_GATES] + [(controlled(random_unitary(rng, 2)), None)]
            fits = []
            for gate, phi in gates:
                dim = len(named_gate(gate, enc, phi)) if isinstance(gate, str) else gate.shape[-1]
                k = round(math.log(dim, d))
                if d**k == dim and k <= width:
                    fits.append((gate, phi, k))
            gate, phi, k = fits[int(rng.integers(len(fits)))]
            return CircuitStep(gate, tuple(int(t) for t in rng.permutation(width)[:k]), phi)

        for width in (2, 3):
            if d**width > 64:
                continue
            steps = tuple(random_step(width) for _ in range(12))
            bits = "".join(rng.choice(["0", "1"], size=width))
            out.append((run_steps, enc, width, steps, bits))
            for _ in range(3):
                state = QuantumState(random_complex(rng, d**width), enc, width)
                step = random_step(width)
                gate = step.gate if step.phi is None else named_gate("R", enc, step.phi)
                out.append((apply_gate, state, gate, step.targets))
        u = random_unitary(rng, d)
        nan, wide = u.copy(), random_complex(rng, (d, d + 1))
        nan[0, -1] = np.nan
        bad = [
            (wide, (0,)), (nan, (0,)), (2 * u, (0,)), (u, (2,)), (u, (1, 1)), (u, (0.5,)),
            (random_unitary(rng, d * d), (0,)), (2 * u, (5,)), (wide, (-1,)), (nan, (0, 1)),
        ]
        good = CircuitStep(u, (1,))
        for gate, targets in bad:
            out.append((run_steps, enc, 2, (good, CircuitStep(gate, targets)), "01"))
        for step in (CircuitStep("R", (0,)), CircuitStep("H", (0,), 0.3)):
            out.append((run_steps, enc, 2, (good, step), "10"))
    return out


def circuit_parts(x):
    call, *args = x
    return outcome(lambda: [call(*args).amplitudes])


def outcome(run):
    """run()'s results, or the text of the ValueError it raises."""
    try:
        return run()
    except ValueError as exc:
        return [f"ValueError: {exc}"]


def check_parts(x):
    m, f, enc = x
    return [
        *outcome(lambda: [principal_unitary_sqrt(m)]),
        *outcome(lambda: [is_unitary(m, 1e-9)]),
        *outcome(lambda: [quantization_report(m, f, enc, 1e-9)]),
    ]


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def schmidt_parts(x):
    r = schmidt(*x)
    return r.coefficients, r.rank, r.left_basis, r.right_basis


def main():
    rng = np.random.default_rng(SEED)
    corpora = {
        "svd": (svd_inputs(rng), svd),
        "schmidt": (schmidt_inputs(rng), schmidt_parts),
        "principal_unitary_sqrt": (sqrt_inputs(rng), lambda u: [principal_unitary_sqrt(u)]),
        "quantization_report": (report_inputs(rng), lambda x: [quantization_report(*x)]),
        "classify_state": (state_inputs(rng), lambda x: [classify_state(*x)]),
        "checks": (check_inputs(), check_parts),
        "circuits": (circuit_inputs(), circuit_parts),
    }
    for name, (inputs, run) in corpora.items():
        print(f"{name} {len(inputs)} {digest(part for x in inputs for part in run(x))}")


if __name__ == "__main__":
    main()
