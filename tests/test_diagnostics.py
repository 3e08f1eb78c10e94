"""Every diagnostic the file readers give, pinned by line, column and message.

One malformed input per diagnostic kind of each format, each giving exactly
one diagnostic, plus the bounded missing-entry listing, the CLI argument
diagnostics and format -> parse round trips.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlift import io as qio
from qlift.cli import main
from qlift.synthesis import _MISSING_LISTED, ClassicalFunction, _missing_inputs

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

PARSERS = {
    "matrix": qio.parse_matrix,
    "state": qio.parse_state,
    "table": qio.parse_truth_table,
    "encoding": qio.parse_encoding_file,
    "circuit": lambda text: qio.parse_circuit(text, base_dir=FIXTURES),
}

NO_SUCH = os.path.join(FIXTURES, "nope")

CASES = [
    # matrix and state files
    ("matrix", "1 0\n0 zebra\n", 2, 3, "bad numeric entry 'zebra'"),
    ("matrix", "1 2ii\n3 4\n", 1, 3, "bad complex entry '2ii'"),
    ("matrix", "1 0\n1\n", 2, 1, "row has 1 entries, expected 2"),
    ("matrix", "# nothing here\n\n", 1, 1, "no matrix data found"),
    ("state", "1\n0 x\n", 2, 3, "bad numeric entry 'x'"),
    ("state", "", 1, 1, "no matrix data found"),
    # truth tables
    ("table", "# only a comment\n", 1, 1, "empty truth table"),
    ("table", "0 -> 1\n1 -> 0\n", 1, 1, "expected header 'in <m> out <n>'"),
    ("table", "  in x out 1\n0 -> 1\n", 1, 3, "expected header 'in <m> out <n>'"),
    ("table", "in 0 out 1\n", 1, 1, "expected header 'in <m> out <n>'"),
    ("table", "in 1 on 1\n0 -> 1\n", 1, 1, "expected header 'in <m> out <n>'"),
    ("table", "in 1 out\n0 -> 1\n", 1, 1, "expected header 'in <m> out <n>'"),
    ("table", "in 1 out 1\n0 1\n0 -> 1\n1 -> 0\n", 2, 1, "expected '<input> -> <output>'"),
    ("table", "in 1 out 1\n0 -> 1 -> 0\n0 -> 1\n1 -> 0\n", 2, 1, "expected '<input> -> <output>'"),
    ("table", "in 1 out 1\n01 -> 1\n0 -> 1\n1 -> 0\n", 2, 1,
     "input must be a bit string of length 1, got '01'"),
    ("table", "in 1 out 1\n -> 1\n0 -> 1\n1 -> 0\n", 2, 2,
     "input must be a bit string of length 1, got ''"),
    ("table", "in 1 out 1\n0 -> 2\n0 -> 1\n1 -> 0\n", 2, 6,
     "output must be a bit string of length 1, got '2'"),
    ("table", "in 1 out 2\n0->1\n0 -> 01\n1 -> 00\n", 2, 4,
     "output must be a bit string of length 2, got '1'"),
    ("table", "in 1 out 1\n0 -> 1\n0 ->\n1 -> 0\n", 3, 5,
     "output must be a bit string of length 1, got ''"),
    ("table", "in 1 out 1\n0 -> 1\n  0->0\n1 -> 0\n", 3, 3,
     "duplicate entry for input 0 (first at line 2)"),
    ("table", "in 1 out 1\n0 -> 1\n", 2, 1, "missing entry for input 1"),
    ("table", "  in 63 out 1\n0 -> 1\n", 1, 3, "arities must lie between 1 and 62, got 63 and 1"),
    ("table", "in 1 out 20000\n0 -> 1\n", 1, 1, "arities must lie between 1 and 62, got 1 and 20000"),
    # encoding files
    ("encoding", "\n", 1, 1, "empty encoding file"),
    ("encoding", "dim 1\n0:\n1\n1:\n1\n", 1, 1, "expected header 'dim <d>' with d >= 2"),
    ("encoding", "  dim x\n", 1, 3, "expected header 'dim <d>' with d >= 2"),
    ("encoding", "dims 2\n0:\n1 0\n1:\n0 1\n", 1, 1, "expected header 'dim <d>' with d >= 2"),
    ("encoding", "dim 2\n1 0\n0:\n1 0\n1:\n0 1\n", 2, 1,
     "expected a section marker '0:', '1:' or 'fixed:'"),
    ("encoding", "dim 2\n0:\n1 0\n1 zebra\n1:\n0 1\n", 4, 3, "bad numeric entry 'zebra'"),
    # A section whose only vector is bad is listed, not also empty.
    ("encoding", "dim 2\n0:\n1 0x\n1:\n0 1\n", 3, 3, "bad numeric entry '0x'"),
    ("encoding", "dim 2\n0:\n1 0\n1\n1:\n0 1\n", 4, 1, "basis vector has 1 entries, expected 2"),
    ("encoding", "dim 2\n0:\n1 0\n", 3, 1, "sections '0:' and '1:' must each list at least one vector"),
    ("encoding", "dim 3\n0:\n1 0 0\n0 1 0\n1:\n0 0 1\n", 1, 1,
     "logical subspaces must have equal dimension (2 vs 1); no unitary NOT exists otherwise"),
    # circuits
    ("circuit", "", 1, 1, "empty circuit: expected 'encoding <name|file>' header"),
    ("circuit", "H 0\n", 1, 1, "expected 'encoding <name|file>' header"),
    ("circuit", "encoding nope.enc\nwidth 1\n", 1, 10,
     f"cannot read encoding file: [Errno 2] No such file or directory: '{NO_SUCH}.enc'"),
    ("circuit", "encoding bad.mat\nwidth 1\n", 1, 10,
     "invalid encoding file 'bad.mat': line 1, column 1: expected header 'dim <d>' with d >= 2"),
    ("circuit", "encoding qubit\n", 1, 1, "expected 'width <n>' after the encoding header"),
    ("circuit", "encoding qubit\n  width 0\n", 2, 3, "expected 'width <n>' with n >= 1"),
    ("circuit", "encoding qubit\nsize 2\nH 0\n", 2, 1, "expected 'width <n>' with n >= 1"),
    ("circuit", "encoding qubit\nwidth\nH 0\n", 2, 1, "expected 'width <n>' with n >= 1"),
    ("circuit", "encoding qubit\nwidth 1\nH\n", 3, 1, "statement needs at least one target"),
    ("circuit", "encoding qubit\nwidth 2\nCNOT 0 x\n", 3, 8, "target must be an integer, got 'x'"),
    ("circuit", "encoding qubit\nwidth 1\nR(x) 0\n", 3, 1, "R expects a real angle in radians, got 'x'"),
    ("circuit", "encoding qubit\nwidth 1\nQ(1) 0\n", 3, 1, "unknown parameterized gate 'Q'"),
    ("circuit", "encoding qubit\nwidth 1\nFROB 0\n", 3, 1,
     "unknown gate name or unreadable matrix file 'FROB'"),
    ("circuit", "encoding qubit\nwidth 2\nH 5\n", 3, 1, "target index 5 out of range for width 2"),
    ("circuit", "encoding qubit\nwidth 2\nCNOT 1 1\n", 3, 1, "duplicate target indices (1, 1)"),
    ("circuit", "encoding qutrit\nwidth 1\nH 0\n", 3, 1,
     "gate of dimension 2 cannot act on 1 target(s) of dimension 3 (expected 3)"),
    ("circuit", "encoding qubit\nwidth 2\nC(nope.mat) 0 1\n", 3, 1,
     f"[Errno 2] No such file or directory: '{NO_SUCH}.mat'"),
    ("circuit", "encoding qubit\nwidth 2\nC(bad.mat) 0 1\n", 3, 1,
     "line 2, column 3: bad numeric entry 'zebra'"),
    ("circuit", "encoding qubit\nwidth 2\nC(not4.mat) 0 1\n", 3, 1,
     "controlled() expects a 2x2 matrix, got (4, 4)"),
    ("circuit", "encoding qubit\nwidth 1\nbad.mat 0\n", 3, 1, "line 2, column 3: bad numeric entry 'zebra'"),
]


@pytest.mark.parametrize("kind,text,line,column,message", CASES)
def test_pinned_diagnostic(kind, text, line, column, message):
    with pytest.raises(qio.ParseError) as err:
        PARSERS[kind](text)
    assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [(line, column, message)]


@pytest.mark.parametrize(
    "kind,text,expected",
    [
        ("matrix", "1 x\n1\n", [(1, 3, "bad numeric entry 'x'")]),
        ("matrix", "1 0\n1\n1 y\n", [(2, 1, "row has 1 entries, expected 2"), (3, 3, "bad numeric entry 'y'")]),
        ("table", "in 1 out 1\n01 -> 1\n1 -> 0\n",
         [(2, 1, "input must be a bit string of length 1, got '01'"), (3, 1, "missing entry for input 0")]),
        ("encoding", "dim 2\n0:\n1\n1:\n0 1\n", [(3, 1, "basis vector has 1 entries, expected 2")]),
        ("circuit", "encoding qubit\nwidth 2\nCNOT x 0_1\nFROB 0\n",
         [(3, 6, "target must be an integer, got 'x'"), (3, 8, "target must be an integer, got '0_1'"),
          (4, 1, "unknown gate name or unreadable matrix file 'FROB'")]),
    ],
)
def test_pinned_diagnostic_sequence(kind, text, expected):
    """Which diagnostics a file with several faults collects, in order."""
    with pytest.raises(qio.ParseError) as err:
        PARSERS[kind](text)
    assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == expected


def test_blank_and_comment_lines_are_skipped():
    """Lines holding only blanks, or blanks and a comment, are not content."""
    gap = "\n \t\n   # note\n"
    assert np.array_equal(qio.parse_matrix(f"1 0{gap}0 1\n"), np.eye(2))
    assert qio.parse_truth_table(f"in 1 out 1{gap}0 -> 1{gap}1 -> 0{gap}") == ClassicalFunction.negation()
    assert qio.parse_encoding_file(f"dim 2{gap}0:{gap}1 0\n1:\n0 1{gap}").ambient_dim == 2
    assert qio.parse_circuit(f"encoding qubit{gap}width 1{gap}NOT 0{gap}").width == 1


class TestMissingEntries:
    """The missing-entry listing is capped, and its cost grows with the
    entries given rather than with 2^m."""

    def test_small_tables_list_every_missing_input(self):
        with pytest.raises(qio.ParseError) as err:
            qio.parse_truth_table("in 4 out 1\n")
        diags = err.value.diagnostics
        assert [d.message for d in diags] == [f"missing entry for input {i:04b}" for i in range(16)]
        assert all((d.line, d.column) == (1, 1) for d in diags)

    def test_listing_is_capped(self):
        text = "in 5 out 1\n00000 -> 1\n00010 -> 1\n"
        with pytest.raises(qio.ParseError) as err:
            qio.parse_truth_table(text)
        diags = err.value.diagnostics
        absent = [f"{i:05b}" for i in range(32) if i not in (0, 2)]
        expected = [f"missing entry for input {x}" for x in absent[:16]] + ["and 14 more missing entries"]
        assert [d.message for d in diags] == expected
        assert all((d.line, d.column) == (3, 1) for d in diags)

    @pytest.mark.parametrize("m", [20, 40, 62])
    def test_wide_header_one_entry(self, m):
        with pytest.raises(qio.ParseError) as err:
            qio.parse_truth_table(f"in {m} out 1\n{'1' * m} -> 1\n")
        diags = err.value.diagnostics
        assert len(diags) == 17
        assert diags[0].message == f"missing entry for input {'0' * m}"
        assert diags[-1].message == f"and {2**m - 17} more missing entries"

    @given(st.integers(1, 7), st.data())
    @settings(max_examples=100, deadline=None)
    def test_walk_matches_the_full_walk(self, m, data):
        """The bounded walk lists what the unbounded walk over all 2^m inputs
        lists first, and counts the rest."""
        given_inputs = data.draw(st.sets(st.integers(0, 2**m - 1)))
        table = {format(i, f"0{m}b"): "0" for i in given_inputs}
        full = [format(i, f"0{m}b") for i in range(2**m) if format(i, f"0{m}b") not in table]
        listed, more = _missing_inputs(m, table)
        assert listed == full[:_MISSING_LISTED] and more == len(full) - len(listed)

    def test_classical_function_message_is_bounded(self):
        with pytest.raises(ValueError) as err:
            ClassicalFunction(20, 1, {"0" * 20: "1"})
        message = str(err.value)
        assert len(message) < 1000
        assert message.startswith("truth table is not total: missing inputs ['00000000000000000001', ")
        assert f"and {2**20 - 17} more" in message

    @pytest.mark.parametrize("m", [1, 2])
    def test_classical_function_empty_table_is_not_total(self, m):
        with pytest.raises(ValueError, match="not total"):
            ClassicalFunction(m, 1, {})

    @pytest.mark.parametrize("m,n", [(63, 1), (1, 64), (10**12, 1), (0, 1)])
    def test_classical_function_arity_bound(self, m, n):
        with pytest.raises(ValueError, match="arities must lie between 1 and 62"):
            ClassicalFunction(m, n, {"0": "1" * n, "1": "0" * n} if m == 1 else {})

    def test_classical_function_small_message_unchanged(self):
        with pytest.raises(ValueError) as err:
            ClassicalFunction(2, 1, {"00": "1", "11": "0", "2": "1", "011": "0"})
        assert str(err.value) == (
            "truth table is not total: missing inputs ['01', '10'], unexpected inputs ['011', '2']"
        )

    def test_cli_exits_2_on_wide_header(self, capsys, tmp_path):
        (tmp_path / "wide.tt").write_text("in 40 out 1\n" + "0" * 40 + " -> 1\n")
        assert main(["synth", str(tmp_path / "wide.tt")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 17

    @pytest.mark.parametrize("m", [20000, 10**12])
    def test_cli_exits_2_on_huge_header(self, capsys, tmp_path, m):
        (tmp_path / "huge.tt").write_text(f"in {m} out 1\n0 -> 1\n")
        assert main(["synth", str(tmp_path / "huge.tt")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"line 1, column 1: arities must lie between 1 and 62, got {m} and 1\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "x.mat", "not.tt", "--tol", "nan"], "--tol expects a finite number >= 0, got 'nan'"),
        (["verify", "x.mat", "not.tt", "--tol", "1_0"], "--tol expects a finite number >= 0, got '1_0'"),
        (["schmidt", "bell_state.vec", "--dims", "2;2"], "--dims expects 'A,B' with positive integers, got '2;2'"),
    ],
)
def test_pinned_argument_diagnostic(capsys, argv, message):
    argv = [os.path.join(FIXTURES, a) if a.endswith((".mat", ".tt", ".vec")) else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"line 1, column 1: {message}\n"


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
entries = st.builds(complex, finite, finite)


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_matrix_round_trip(rows, cols, data):
    values = data.draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    m = np.array(values, dtype=np.complex128).reshape(rows, cols)
    again = qio.parse_matrix(qio.format_matrix(m))
    assert again.shape == m.shape
    assert np.array_equal(again.view(np.float64), m.view(np.float64))
    assert np.array_equal(np.signbit(again.view(np.float64)), np.signbit(m.view(np.float64)))


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_truth_table_round_trip(m, n, data):
    image = data.draw(st.lists(st.integers(0, 2**n - 1), min_size=2**m, max_size=2**m))
    f = ClassicalFunction(m, n, {f"{x:0{m}b}": f"{y:0{n}b}" for x, y in enumerate(image)})
    text = qio.format_truth_table(f)
    assert text.splitlines() == [f"in {m} out {n}"] + [f"{x:0{m}b} -> {y:0{n}b}" for x, y in enumerate(image)]
    again = qio.parse_truth_table(text)
    assert again == f and np.array_equal(again.image, image)
