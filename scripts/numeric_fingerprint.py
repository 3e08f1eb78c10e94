#!/usr/bin/env python3
"""Numeric fingerprint of the library, for checking that a change keeps its
numbers bit for bit: the counterpart of cli_transcript.py for the numerics.

Runs svd, schmidt, principal_unitary_sqrt, quantization_report and
classify_state over a seeded corpus of a few hundred inputs and prints one
sha256 line per routine, taken over the exact bytes of every result (the
floats of a report or a classification by their repr).  The svd corpus
holds random, low-rank and row- or column-graded inputs down to 1e-300,
whose sweeps reach the Jacobi floor, and the three range-end inputs of the
scale contract.  Two fingerprints differ only on the routines whose output
changed in some bit:

    PYTHONPATH=src python scripts/numeric_fingerprint.py > after.txt
    diff before.txt after.txt
"""

import hashlib

import numpy as np

from qlift import (
    BUILTIN_ENCODINGS,
    ClassicalFunction,
    QuantumState,
    builtin_encoding,
    classify_state,
    encode_bits,
    principal_unitary_sqrt,
    quantization_report,
    quantize_irreversible,
    quantize_reversible,
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
    1e-300, two larger squares and the range ends."""
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
    """Random unitaries, permutations and unitaries with eigenvalue -1."""
    out = [random_unitary(rng, int(rng.integers(1, 17))) for _ in range(40)]
    out += [np.eye(n)[:, rng.permutation(n)] for n in rng.integers(1, 17, size=20)]
    for n in rng.integers(2, 9, size=10):
        q = random_unitary(rng, n)
        out.append((q * np.where(np.arange(n) % 2, -1.0, 1.0)) @ q.conj().T)
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
    }
    for name, (inputs, run) in corpora.items():
        print(f"{name} {len(inputs)} {digest(part for x in inputs for part in run(x))}")


if __name__ == "__main__":
    main()
