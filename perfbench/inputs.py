"""Seeded inputs and independent correctness references for every workload.

This module uses numpy only and never imports qlift: the program under test
receives the generated inputs, and the references here check its outputs by
another route than the layer being checked.

Each workload is a fixed list of job *slots* (encoding, size, kind) that
repeats once per cycle.  The seed picks only the random content of each slot
(truth tables, gate sequences, states), so the cost of a cycle is nearly the
same for every seed and the timings stay comparable across seeds.  Cycle k of
a workload is generated from ``default_rng([seed, workload, k])``: the same
seed gives the same inputs, and later cycles never repeat earlier ones.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

WORKLOADS = ("gates", "circuits", "schmidt", "cli")

# Digit classes of the encodings aligned to the standard basis: per ambient
# index, (bit, index within the bit's subspace), or None for a fixed
# direction.  Mirrors the README's definitions, not qlift's tables.
ALIGNED = {
    "qubit": (2, {0: (0, 0), 1: (1, 0)}),
    "qutrit": (3, {0: (0, 0), 2: (1, 0), 1: None}),
    "ququart": (4, {0: (0, 0), 3: (0, 1), 1: (1, 0), 2: (1, 1)}),
    "matrix2": (4, {0: (0, 0), 3: (0, 1), 1: (1, 0), 2: (1, 1)}),
}
_S = 1 / math.sqrt(2)
# First basis vector of each bit value: what encode_bits uses per factor.
FIRST_VECTOR = {
    "qubit": ([1, 0], [0, 1]),
    "qutrit": ([1, 0, 0], [0, 0, 1]),
    "ququart": ([1, 0, 0, 0], [0, 1, 0, 0]),
    "matrix2": ([1, 0, 0, 0], [0, 1, 0, 0]),
    "pauli": ([_S, 0, 0, _S], [0, -1j * _S, 1j * _S, 0]),
}
DIM = {"qubit": 2, "qutrit": 3, "ququart": 4, "matrix2": 4, "pauli": 4}

# Tolerances of the checks.  Every check here is exact up to rounding, so
# these sit far above double-precision error and far below a real defect.
TOL = 1e-8


def cycle_rng(seed: int, workload: str, cycle: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), cycle])


def bits(i: int, n: int) -> str:
    return format(i, f"0{n}b")


def xor(a: str, b: str) -> str:
    return "".join("1" if x != y else "0" for x, y in zip(a, b))


def random_unitary(rng, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_bijection(rng, n: int) -> dict[str, str]:
    perm = rng.permutation(2**n)
    return {bits(i, n): bits(int(perm[i]), n) for i in range(2**n)}


def random_table(rng, m: int, k: int) -> dict[str, str]:
    """A random m -> k table that is not a bijection, so qlift takes it
    through the XOR closure."""
    while True:
        table = {bits(i, m): bits(int(rng.integers(2**k)), k) for i in range(2**m)}
        if m != k or len(set(table.values())) < len(table):
            return table


def closure(table: dict[str, str]) -> dict[str, str]:
    """(x, y) -> (x, f(x) xor y), written out independently of qlift."""
    k = len(next(iter(table.values())))
    return {
        x + bits(j, k): x + xor(fx, bits(j, k))
        for x, fx in table.items()
        for j in range(2**k)
    }


def encoded(enc: str, word: str) -> np.ndarray:
    """Encoded basis state of a bit string: Kronecker product of the first
    basis vector of each bit, first bit most significant."""
    v = np.ones(1, dtype=np.complex128)
    for b in word:
        v = np.kron(v, np.asarray(FIRST_VECTOR[enc][int(b)], dtype=np.complex128))
    return v


def reference_permutation(enc: str, table: dict[str, str]) -> np.ndarray:
    """The synthesized gate of a reversible table under an aligned encoding:
    basis vector i of the input's subspace goes to basis vector i of the
    image's subspace, and every index with a fixed digit stays put."""
    d, classes = ALIGNED[enc]
    digit_of = {c: digit for digit, c in classes.items() if c is not None}
    n = len(next(iter(table)))
    size = d**n
    image = np.arange(size)
    for idx in range(size):
        digits = [(idx // d**p) % d for p in range(n - 1, -1, -1)]
        cls = [classes[x] for x in digits]
        if any(c is None for c in cls):
            continue
        out = table["".join(str(c[0]) for c in cls)]
        image[idx] = sum(
            digit_of[(int(b), c[1])] * d**p
            for b, c, p in zip(out, cls, range(n - 1, -1, -1))
        )
    p = np.zeros((size, size), dtype=np.complex128)
    p[image, np.arange(size)] = 1.0
    return p


def census_count(enc: str, n: int) -> int:
    """Number of permutation matrices realizing a reversible n-bit function.

    Aligned encodings: each input class of k = bit_dim^n indices may go onto
    its image class in any order, and the fixed indices may permute among
    themselves.  Pauli: none, since a 0/1 matrix maps the nonnegative vector
    (1,0,0,1) to a nonnegative one, never into span{(0,-i,i,0),(1,0,0,-1)}."""
    if enc not in ALIGNED:
        return 0
    d, classes = ALIGNED[enc]
    logical = sum(c is not None for c in classes.values())
    k = (logical // 2) ** n
    fixed = d**n - logical**n
    return math.factorial(k) ** (2**n) * math.factorial(fixed)


def _class_key(enc: str, n: int, idx: int):
    d, classes = ALIGNED[enc]
    cls = [classes[(idx // d**p) % d] for p in range(n - 1, -1, -1)]
    return None if any(c is None for c in cls) else tuple(c[0] for c in cls)


def corruption(rng, enc: str, n: int) -> dict:
    """A change that must make a correct gate fail verification.

    A Givens rotation mixing two ambient basis directions from different
    logical subspaces (or a subspace and the fixed complement), or, for one
    job in four, a column stretched so the matrix is no longer unitary."""
    size = DIM[enc] ** n
    if rng.random() < 0.25:
        return {"kind": "stretch", "col": int(rng.integers(size)), "by": float(rng.uniform(1.01, 1.5))}
    while True:
        i, j = (int(x) for x in rng.choice(size, 2, replace=False))
        if enc not in ALIGNED or _class_key(enc, n, i) != _class_key(enc, n, j):
            break
    return {"kind": "givens", "i": i, "j": j, "theta": float(rng.uniform(0.3, 1.2))}


def corrupt(m: np.ndarray, c: dict) -> np.ndarray:
    out = np.array(m, dtype=np.complex128)
    if c["kind"] == "stretch":
        out[:, c["col"]] *= c["by"]
        return out
    i, j, t = c["i"], c["j"], c["theta"]
    ci, cj = out[:, i].copy(), out[:, j].copy()
    out[:, i] = math.cos(t) * ci + math.sin(t) * cj
    out[:, j] = -math.sin(t) * ci + math.cos(t) * cj
    return out


# ---------------------------------------------------------------- gates ---

# (encoding, n) points of random reversible functions.  The curves stop where
# one more point would cost too much on every repeat of a run: qubit n=10
# synthesis takes about 8 s per call, and a dense ququart n=6 gate
# (d^n = 4096) holds 268 MB.
GATE_POINTS = (
    [("qubit", n) for n in range(1, 9)]
    + [("qutrit", n) for n in range(1, 6)]
    + [("ququart", n) for n in range(1, 6)]
    + [("matrix2", n) for n in range(1, 5)]
    + [("pauli", n) for n in range(1, 5)]
)
# (encoding, m, k): irreversible m -> k tables, synthesized on m + k bits
# through the XOR closure.
IRREVERSIBLE_POINTS = (
    ("qubit", 3, 2),
    ("qubit", 4, 2),
    ("qutrit", 2, 1),
    ("ququart", 2, 1),
    ("matrix2", 1, 2),
    ("pauli", 1, 1),
)
# Enumeration census: the 24 two-bit bijections on qubit, CENSUS_PER_CYCLE of
# them per cycle in rotation, plus NOT under each one-subsystem encoding.
# The three-bit census (8! = 40,320 candidates, about 79 s) is left out.
CENSUS_PER_CYCLE = 8
SQRT_MAX_DIM = 256


def _all_two_bit_bijections() -> list[dict[str, str]]:
    return [
        {bits(i, 2): bits(p[i], 2) for i in range(4)}
        for p in itertools.permutations(range(4))
    ]


TWO_BIT_BIJECTIONS = _all_two_bit_bijections()
NOT_TABLE = {"0": "1", "1": "0"}


def _classify_input(rng, enc: str, table: dict[str, str], n: int):
    """An input for classify_state and the verdict it must get after the gate.

    Mostly an encoded basis state (logical); one in four is a superposition of
    two encoded inputs; on qutrit, one in eight puts the fixed direction on a
    factor, which the gate leaves in place (outside the code)."""
    x = bits(int(rng.integers(2**n)), n)
    roll = rng.random()
    if enc == "qutrit" and roll < 0.125:
        v = np.zeros(3**n, dtype=np.complex128)
        t = int(rng.integers(n))
        digits = [0 if b == "0" else 2 for b in x]
        digits[t] = 1
        v[sum(dg * 3 ** (n - 1 - p) for p, dg in enumerate(digits))] = 1.0
        return v, ("outside_code", None)
    if roll < 0.375:
        y = bits(int(rng.integers(2**n - 1)), n)
        if y >= x:
            y = bits(int(y, 2) + 1, n)
        return (encoded(enc, x) + encoded(enc, y)) * _S, ("superposition", None)
    return encoded(enc, x), ("logical", table[x])


def _gate_job(rng, enc: str, n_in: int, table: dict[str, str], kind: str, tag: str) -> dict:
    rev = table if kind == "reversible" else closure(table)
    n = len(next(iter(rev)))
    vec, verdict = _classify_input(rng, enc, rev, n)
    return {
        "kind": kind,
        "tag": tag,
        "enc": enc,
        "n": n,
        "table": table,
        "arity": (n_in, len(next(iter(table.values())))),
        "corruption": corruption(rng, enc, n),
        "classify_input": vec,
        "classify_expect": verdict,
        "sqrt": DIM[enc] ** n <= SQRT_MAX_DIM,
    }


def gates_cycle(rng, cycle: int) -> list[dict]:
    jobs = []
    for enc, n in GATE_POINTS:
        jobs.append(_gate_job(rng, enc, n, random_bijection(rng, n), "reversible", f"{enc}/n={n}"))
    for enc, m, k in IRREVERSIBLE_POINTS:
        jobs.append(
            _gate_job(rng, enc, m, random_table(rng, m, k), "irreversible", f"{enc}/n={m + k}/xor")
        )
    start = (cycle * CENSUS_PER_CYCLE) % len(TWO_BIT_BIJECTIONS)
    for i in range(start, start + CENSUS_PER_CYCLE):
        table = TWO_BIT_BIJECTIONS[i % len(TWO_BIT_BIJECTIONS)]
        jobs.append({"kind": "census", "tag": "census/qubit/n=2", "enc": "qubit", "n": 2, "table": table})
    for enc in FIRST_VECTOR:
        jobs.append({"kind": "census", "tag": f"census/{enc}/n=1", "enc": enc, "n": 1, "table": NOT_TABLE})
    return jobs


# ------------------------------------------------------------- circuits ---

CIRCUIT_POINTS = (
    [("qubit", w) for w in range(12, 17)]
    + [("qutrit", w) for w in (8, 9, 10)]
    + [("ququart", w) for w in (6, 7, 8)]
    + [("matrix2", w) for w in (6, 7, 8)]
    + [("pauli", 6)]
)
# Steps of the forward half C; undoing a SQRT_NOT takes two steps, so the
# mirror C, C-dagger has 50 to 60 steps.  The count is fixed, so that the seed
# changes which gates a slot applies but hardly its cost.
FORWARD_STEPS = 25


def _controlled(u: np.ndarray) -> np.ndarray:
    out = np.eye(4, dtype=np.complex128)
    out[2:, 2:] = u
    return out


def to_tensor(g: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """(rows, cols, slices) tensor whose trace action is y = g @ res(x)."""
    return g.reshape(g.shape[0], cols, rows).transpose(2, 1, 0).copy()


def _random_step(rng, enc: str, width: int):
    """One forward step and the steps that undo it, as (gate, targets, phi)."""
    d = DIM[enc]
    roll = rng.random()
    t1 = (int(rng.integers(width)),)
    t2 = tuple(int(x) for x in rng.choice(width, 2, replace=False))
    if roll < 0.2:
        return [("NOT", t1, None)], [("NOT", t1, None)]
    if roll < 0.35:
        # SQRT_NOT^4 = NOT^2 = I, so NOT then SQRT_NOT undoes it.
        return [("SQRT_NOT", t1, None)], [("NOT", t1, None), ("SQRT_NOT", t1, None)]
    if d == 2:
        if roll < 0.5:
            return [("H", t1, None)], [("H", t1, None)]
        if roll < 0.6:
            phi = float(rng.uniform(-math.pi, math.pi))
            return [("R", t1, phi)], [("R", t1, -phi)]
        if roll < 0.7:
            return [("CNOT", t2, None)], [("CNOT", t2, None)]
        if roll < 0.8:
            return [("SWAP", t2, None)], [("SWAP", t2, None)]
        if roll < 0.9:
            u = random_unitary(rng, 2)
            return [(_controlled(u), t2, None)], [(_controlled(u.conj().T), t2, None)]
        u = random_unitary(rng, 2)
        return [(u, t1, None)], [(u.conj().T, t1, None)]
    if d == 4 and roll < 0.5:
        # qubit-sized 4x4 gates act on one four-dimensional subsystem.
        name = ("CNOT", "SWAP")[int(rng.integers(2))]
        return [(name, t1, None)], [(name, t1, None)]
    if enc == "matrix2" and roll < 0.7:
        u = random_unitary(rng, 4)
        return [(to_tensor(u, 2, 2), t1, None)], [(to_tensor(u.conj().T, 2, 2), t1, None)]
    if roll < 0.85:
        u = random_unitary(rng, d)
        return [(u, t1, None)], [(u.conj().T, t1, None)]
    u = random_unitary(rng, d * d)
    return [(u, t2, None)], [(u.conj().T, t2, None)]


def circuits_cycle(rng, cycle: int) -> list[dict]:
    jobs = []
    for enc, width in CIRCUIT_POINTS:
        forward, undo = [], []
        for _ in range(FORWARD_STEPS):
            f, u = _random_step(rng, enc, width)
            forward += f
            undo = u + undo
        word = bits(int(rng.integers(2**width)), width)
        jobs.append(
            {"kind": "mirror", "tag": f"{enc}/w={width}", "enc": enc, "width": width,
             "steps": forward + undo, "input": word}
        )
    return jobs


# -------------------------------------------------------------- schmidt ---

# (rows, cols, rank): rank None is full rank.  Squares, rectangles, rank 1,
# deficient rank, in three cost groups.  With the cat states and the extreme
# and near-degenerate points below, the groups hold 12, 9 and 13 slots, so
# the median job falls mid-way through the middle group and the 90th
# percentile among the 32x32 jobs.  64x64 is the largest point: the Jacobi
# SVD takes about 0.6 s there, twice per job.
SCHMIDT_POINTS = (
    # under 3 ms
    (2, 2, None), (2, 2, 1), (5, 3, 2), (4, 4, None), (4, 4, 1), (16, 4, 2),
    # 7 to 30 ms
    (6, 6, 3), (8, 8, None), (8, 8, 1), (8, 8, 4), (8, 32, None), (32, 8, 3),
    (12, 12, None),
    # 60 ms and more
    (16, 16, None), (16, 16, 1), (16, 16, 5), (16, 64, None), (64, 16, 4),
    (20, 20, None), (24, 24, None), (32, 32, None), (32, 32, 1), (32, 32, 6),
    (40, 40, None), (64, 64, None),
)
# Bell and GHZ outputs split as (rows, cols): Schmidt rank 2, coefficients
# 1/sqrt(2).
CAT_POINTS = ((2, 2), (2, 4), (4, 32))
# A fixed share of inputs at extreme scale, where the squared norms overflow
# or underflow (known defects, counted as failures), as (scale, rows, cols,
# rank), and of near-degenerate spectra, as (rows, cols, relative gap).
EXTREME_POINTS = (
    (1e160, 4, 4, 2), (1e-160, 8, 8, None), (1e300, 2, 2, None), (1e-300, 3, 6, None),
)
NEAR_DEGENERATE = ((8, 8, 1e-11), (16, 16, 1e-13))


def state_with_spectrum(rng, rows: int, cols: int, s: np.ndarray) -> np.ndarray:
    u = random_unitary(rng, rows)[:, : len(s)]
    v = random_unitary(rng, cols)[:, : len(s)]
    m = (u * s) @ v.conj().T
    return (m / np.linalg.norm(m)).reshape(-1)


def spectrum(rank: int) -> np.ndarray:
    """Evenly spaced singular values.  The seed picks the singular vectors
    only, because the Jacobi sweep count, and so the cost of a job, depends
    on the spectrum."""
    return np.linspace(1.0, 0.1, rank)


def _schmidt_job(tag, rows, cols, amps, rank, known_defect=False) -> dict:
    return {"kind": "schmidt", "tag": tag, "dims": (rows, cols), "amps": amps,
            "rank": rank, "known_defect": known_defect}


def schmidt_cycle(rng, cycle: int) -> list[dict]:
    jobs = []
    for rows, cols, rank in SCHMIDT_POINTS:
        r = min(rows, cols) if rank is None else rank
        label = "full" if rank is None else f"rank{rank}"
        amps = state_with_spectrum(rng, rows, cols, spectrum(r))
        jobs.append(_schmidt_job(f"{rows}x{cols}/{label}", rows, cols, amps, r))
    for rows, cols in CAT_POINTS:
        amps = np.zeros(rows * cols, dtype=np.complex128)
        amps[0] = amps[-1] = _S
        jobs.append(_schmidt_job(f"{rows}x{cols}/cat", rows, cols, amps, 2))
    for scale, rows, cols, rank in EXTREME_POINTS:
        r = min(rows, cols) if rank is None else rank
        amps = state_with_spectrum(rng, rows, cols, spectrum(r)) * scale
        jobs.append(_schmidt_job(f"{rows}x{cols}/scale{scale:.0e}", rows, cols, amps, r, True))
    for rows, cols, gap in NEAR_DEGENERATE:
        base = spectrum(min(rows, cols) // 2)
        s = np.sort(np.concatenate([base, base * (1 + gap)]))[::-1]
        amps = state_with_spectrum(rng, rows, cols, s)
        jobs.append(_schmidt_job(f"{rows}x{cols}/gap{gap:.0e}", rows, cols, amps, len(s)))
    return jobs


def reference_schmidt(amps: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Schmidt coefficients by LAPACK, after scaling by the largest entry so
    that no square of an extreme amplitude overflows or underflows."""
    m = amps.reshape(rows, cols) / np.max(np.abs(amps))
    s = np.linalg.svd(m, compute_uv=False)
    return s / np.linalg.norm(s)


# ------------------------------------------------------------------ cli ---


def fmt(z) -> str:
    z = complex(z)
    return f"{z.real!r}{'-' if math.copysign(1, z.imag) < 0 else '+'}{abs(z.imag)!r}i"


def matrix_text(m: np.ndarray) -> str:
    return "\n".join(" ".join(fmt(z) for z in row) for row in m) + "\n"


def table_text(table: dict[str, str]) -> str:
    m, n = len(next(iter(table))), len(next(iter(table.values())))
    return f"in {m} out {n}\n" + "".join(f"{k} -> {v}\n" for k, v in sorted(table.items()))


def cli_cycle(rng, cycle: int) -> list[dict]:
    """CLI cases: each has files to write, an argv (file names relative to the
    cycle's directory), the exit code it must give and output checks."""
    jobs = []

    def add(sub, argv, files, code, **expect):
        jobs.append({"kind": "cli", "tag": f"cli/{sub}", "argv": argv, "files": files,
                     "code": code, "expect": expect})

    enc = ["qubit", "qutrit", "ququart", "matrix2"][cycle % 4]
    n = int(rng.integers(1, 3))
    t = random_bijection(rng, n)
    add("synth", ["synth", "f.tt", "--encoding", enc], {"f.tt": table_text(t)}, 0,
        matrix=reference_permutation(enc, t))
    irr = random_table(rng, 2, 1)
    add("synth", ["synth", "g.tt"], {"g.tt": table_text(irr)}, 0,
        matrix=reference_permutation("qubit", closure(irr)))
    name = ["NOT", "SQRT_NOT", "H", "CNOT", "SWAP"][cycle % 5]
    senc = "qubit" if name in ("H", "CNOT", "SWAP") else ["qubit", "qutrit", "ququart", "pauli"][cycle % 4]
    add("sqrt", ["sqrt", name, "--encoding", senc], {}, 0, unitary=True)
    u = random_unitary(rng, int(rng.integers(2, 5)))
    add("sqrt", ["sqrt", "u.mat"], {"u.mat": matrix_text(u)}, 0, root_of=u)
    shear = np.eye(2) + np.triu(np.ones((2, 2)), 1) * rng.uniform(0.5, 2)
    add("sqrt", ["sqrt", "shear.mat"], {"shear.mat": matrix_text(shear)}, 1)

    width = int(rng.integers(2, 5))
    word = bits(int(rng.integers(2**width)), width)
    lines, state = [], list(word)
    for _ in range(int(rng.integers(3, 8))):
        if rng.random() < 0.4:
            q = int(rng.integers(width))
            lines.append(f"NOT {q}")
            state[q] = "1" if state[q] == "0" else "0"
        else:
            a, b = (int(x) for x in rng.choice(width, 2, replace=False))
            if rng.random() < 0.5:
                lines.append(f"CNOT {a} {b}")
                if state[a] == "1":
                    state[b] = "1" if state[b] == "0" else "0"
            else:
                lines.append(f"SWAP {a} {b}")
                state[a], state[b] = state[b], state[a]
    circ = f"encoding qubit\nwidth {width}\n" + "\n".join(lines) + "\n"
    add("run", ["run", "c.circ", "--input", word], {"c.circ": circ}, 0,
        probabilities={int("".join(state), 2): 1.0})
    phi = float(rng.uniform(-3, 3))
    bell = f"encoding qubit\nwidth 2\nH 0\nR({phi!r}) 0\nC(x.mat) 0 1\n"
    add("run", ["run", "bell.circ", "--input", "00"],
        {"bell.circ": bell, "x.mat": "0 1\n1 0\n"}, 0, probabilities={0: 0.5, 3: 0.5})

    rows, cols = [(2, 2), (2, 3), (3, 3), (4, 2)][cycle % 4]
    rank = int(rng.integers(1, min(rows, cols) + 1))
    amps = state_with_spectrum(rng, rows, cols, spectrum(rank))
    add("schmidt", ["schmidt", "s.vec", "--dims", f"{rows},{cols}"],
        {"s.vec": "".join(fmt(a) + "\n" for a in amps)}, 0,
        rank=rank, classification="separable" if rank == 1 else "entangled")

    nenc = ["qubit", "qutrit", "ququart", "matrix2", "pauli"][cycle % 5]
    add("enumerate", ["enumerate", "not.tt", "--encoding", nenc],
        {"not.tt": table_text(NOT_TABLE)}, 0, count=census_count(nenc, 1))
    t2 = TWO_BIT_BIJECTIONS[int(rng.integers(len(TWO_BIT_BIJECTIONS)))]
    add("enumerate", ["enumerate", "t2.tt"], {"t2.tt": table_text(t2)}, 0,
        count=census_count("qubit", 2))

    venc = ["qubit", "qutrit", "ququart", "matrix2"][(cycle // 4) % 4]
    vt = random_bijection(rng, 1 + cycle % 2)
    good = reference_permutation(venc, vt)
    add("verify", ["verify", "good.mat", "v.tt", "--encoding", venc],
        {"good.mat": matrix_text(good), "v.tt": table_text(vt)}, 0, verdict="true")
    bad = corrupt(good, corruption(rng, venc, len(next(iter(vt)))))
    add("verify", ["verify", "bad.mat", "v.tt", "--encoding", venc],
        {"bad.mat": matrix_text(bad), "v.tt": table_text(vt)}, 1, verdict="false")

    # Malformed inputs: exit code 2 with no result.
    add("verify", ["verify", "junk.mat", "v.tt"],
        {"junk.mat": "0 1\n1 zebra\n", "v.tt": table_text(NOT_TABLE)}, 2)
    x = "01"[cycle % 2]
    add("synth", ["synth", "hole.tt"], {"hole.tt": f"in 1 out 1\n{x} -> {x}\n"}, 2)
    add("run", ["run", "far.circ", "--input", "00"],
        {"far.circ": "encoding qubit\nwidth 2\nNOT 2\n"}, 2)
    add("schmidt", ["schmidt", "s.vec", "--dims", "2,x"], {"s.vec": "1\n0\n0\n0\n"}, 2)
    return jobs


CYCLES = {
    "gates": gates_cycle,
    "circuits": circuits_cycle,
    "schmidt": schmidt_cycle,
    "cli": cli_cycle,
}


def make_cycle(workload: str, seed: int, cycle: int) -> list[dict]:
    jobs = CYCLES[workload](cycle_rng(seed, workload, cycle), cycle)
    order = np.random.default_rng([seed, WORKLOADS.index(workload), cycle, 1]).permutation(len(jobs))
    return [jobs[i] for i in order]
