"""The integer image of a truth table against the bit-string walks it
replaced.  The string versions below are the reference: reversible closure,
composition and the output-bit walk that builds a reversible gate."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlift import encodings as en
from qlift import io as qio
from qlift import synthesis as sy
from qlift.linalg import kron_apply

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

with open(os.path.join(FIXTURES, "qutrit_like.enc"), encoding="utf-8") as _fh:
    QUTRIT_LIKE = qio.parse_encoding_file(_fh.read(), "qutrit_like")
ENCODINGS = [en.builtin_encoding(name) for name in en.BUILTIN_ENCODINGS] + [QUTRIT_LIKE]


def _xor(a: str, b: str) -> str:
    return "".join("1" if x != y else "0" for x, y in zip(a, b))


def closure_reference(f):
    m, n = f.arity_in, f.arity_out
    table = {}
    for i in range(2**m):
        x = format(i, f"0{m}b")
        fx = f(x)
        for j in range(2**n):
            y = format(j, f"0{n}b")
            table[x + y] = x + _xor(fx, y)
    return sy.ClassicalFunction(m + n, m + n, table)


def compose_reference(f, g):
    return sy.ClassicalFunction(g.arity_in, f.arity_out, {x: f(g(x)) for x in g.table})


def reversible_matrix_reference(f, enc):
    n = f.arity_in
    d, k = enc.ambient_dim, enc.bit_dim
    dim = d**n
    labels = np.indices((d,) * n).reshape(n, -1)
    bits = labels // k
    logical = (bits < 2).all(axis=0)
    outputs = np.array([list(f(format(i, f"0{n}b"))) for i in range(2**n)], dtype=int)
    out_bits = outputs[np.ravel_multi_index(np.minimum(bits, 1), (2,) * n)].T
    image = np.ravel_multi_index(np.where(logical, out_bits * k + labels % k, labels), (d,) * n)
    frames = [enc.frame] * n + [enc.frame.conj()] * n
    perm = np.eye(dim, dtype=np.complex128)[:, image].reshape(-1)
    return kron_apply(frames, perm).reshape(dim, dim)


def _function(m, n, outputs):
    table = {format(i, f"0{m}b"): format(y, f"0{n}b") for i, y in enumerate(outputs)}
    return sy.ClassicalFunction(m, n, table)


@st.composite
def functions(draw, m=None, n=None):
    m = draw(st.integers(1, 4)) if m is None else m
    n = draw(st.integers(1, 4)) if n is None else n
    return _function(m, n, draw(st.lists(st.integers(0, 2**n - 1), min_size=2**m, max_size=2**m)))


@st.composite
def bijections(draw, max_bits=4):
    n = draw(st.integers(1, max_bits))
    return _function(n, n, draw(st.permutations(range(2**n))))


@given(functions())
@settings(max_examples=150, deadline=None)
def test_image_and_reversibility_match_the_table(f):
    m = f.arity_in
    assert f.image.tolist() == [int(f.table[format(i, f"0{m}b")], 2) for i in range(2**m)]
    assert f.is_reversible == (m == f.arity_out and len(set(f.table.values())) == len(f.table))


@given(functions())
@settings(max_examples=150, deadline=None)
def test_closure_matches_string_reference(f):
    got, want = sy.reversible_closure(f), closure_reference(f)
    assert got == want and np.array_equal(got.image, want.image)


@given(st.data(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_compose_matches_string_reference(data, m, k, n):
    g = data.draw(functions(m, k))
    f = data.draw(functions(k, n))
    got, want = sy.compose(f, g), compose_reference(f, g)
    assert got == want and np.array_equal(got.image, want.image)


@given(bijections(), st.sampled_from(ENCODINGS))
@settings(max_examples=100, deadline=None)
def test_reversible_matrix_matches_string_reference(f, enc):
    got, want = sy._reversible_matrix(f, enc), reversible_matrix_reference(f, enc)
    assert got.dtype == want.dtype and np.array_equal(got, want)


CASES = {
    "negation": sy.ClassicalFunction.negation(),
    "identity2": sy.ClassicalFunction.identity(2),
    "cnot": sy.ClassicalFunction.from_pairs({"00": "00", "01": "01", "10": "11", "11": "10"}),
    "cycle3": _function(3, 3, [3, 0, 7, 5, 1, 6, 2, 4]),
    "constant1": sy.ClassicalFunction.constant(1, "1"),
    "and": _function(2, 1, [0, 0, 0, 1]),
    "fanout": _function(1, 2, [1, 2]),
}


@pytest.mark.parametrize("enc", ENCODINGS, ids=lambda e: e.name)
@pytest.mark.parametrize("name", CASES)
def test_quantize_matches_string_reference(name, enc):
    f = CASES[name]
    closed = f if f.is_reversible else closure_reference(f)
    quantize = sy.quantize_reversible if f.is_reversible else sy.quantize_irreversible
    gate = quantize(f, enc).matrix
    want = reversible_matrix_reference(closed, enc)
    assert gate.dtype == want.dtype and np.array_equal(gate, want)
    report = sy.quantization_report(gate, f, enc, 1e-9)
    assert report.ok
    assert [(c.bits_in, c.bits_out) for c in report.subspace_checks] == [
        (x, closed(x)) for x in sorted(closed.table)
    ]
