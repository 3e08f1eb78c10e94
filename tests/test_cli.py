import os
import subprocess
import sys

import numpy as np
import pytest

import qlift
from qlift import entanglement as ent
from qlift.cli import _index_digits, main
from qlift.io import parse_complex

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynth:
    def test_qubit_negation(self, capsys):
        code, out, _ = run_cli(capsys, "synth", fx("not.tt"), "--encoding", "qubit")
        assert code == 0
        values = [
            [parse_complex(tok) for tok in line.split()]
            for line in out.strip().splitlines()
        ]
        assert np.array_equal(np.array(values), np.array([[0, 1], [1, 0]]))

    def test_irreversible_table_synthesized_via_closure(self, capsys, tmp_path):
        table = tmp_path / "const1.tt"
        table.write_text("in 1 out 1\n0 -> 1\n1 -> 1\n")
        code, out, _ = run_cli(capsys, "synth", str(table))
        assert code == 0
        assert len(out.strip().splitlines()) == 4  # two-qubit gate

    @pytest.mark.parametrize(
        "table,encoding",
        [
            ("in \u0661 out 1\n0 -> 1\n1 -> 0\n", "qubit"),
            ("in 1 out 1_0\n0 -> 1\n1 -> 0\n", "qubit"),
            ("in 1 out 1\n0 -> 1\n1 -> 0\n", "dim 1_0\n0:\n1 0\n1:\n0 1\n"),
        ],
    )
    def test_non_ascii_integer_header_is_parse_error(self, capsys, tmp_path, table, encoding):
        (tmp_path / "t.tt").write_text(table)
        if encoding != "qubit":
            (tmp_path / "e.enc").write_text(encoding)
            encoding = str(tmp_path / "e.enc")
        code, out, err = run_cli(capsys, "synth", str(tmp_path / "t.tt"), "--encoding", encoding)
        assert code == 2 and not out and "expected header" in err

    def test_custom_encoding_file(self, capsys):
        code, out, _ = run_cli(
            capsys, "synth", fx("not.tt"), "--encoding", fx("qutrit_like.enc")
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    @pytest.mark.parametrize("scale,residual", [("1e200", "inf"), ("1e-200", "1.000e+00")], ids=["1e200", "1e-200"])
    def test_non_orthonormal_encoding_file_is_parse_error(self, capsys, tmp_path, scale, residual):
        """The residual ||F^dagger F - I||_F of the frame F = diag(scale, 1)
        is about scale**2, inf beyond the double range, or 1 once scale**2
        underflows; the orthonormality tolerance is 1e-12."""
        (tmp_path / "e.enc").write_text(f"dim 2\n0:\n{scale} 0\n1:\n0 1\n")
        code, out, err = run_cli(capsys, "synth", fx("not.tt"), "--encoding", str(tmp_path / "e.enc"))
        message = f"encoding basis vectors are not orthonormal (residual {residual}, tol 1.000e-12)"
        assert (code, out, err) == (2, "", f"line 1, column 1: {message}\n")

    def test_missing_file_is_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "synth", fx("nope.tt"))
        assert code == 2 and err


class TestSqrt:
    def test_named_negation(self, capsys):
        code, out, _ = run_cli(capsys, "sqrt", "NOT")
        assert code == 0
        rows = [
            [parse_complex(tok) for tok in line.split()]
            for line in out.strip().splitlines()
        ]
        expected = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
        assert np.allclose(np.array(rows), expected, atol=1e-12)

    def test_matrix_file(self, capsys):
        code, out, _ = run_cli(capsys, "sqrt", fx("x.mat"))
        assert code == 0

    def test_entry_beyond_double_range_is_parse_error(self, capsys, tmp_path):
        (tmp_path / "big.mat").write_text("1 0\n0 1e400\n")
        code, out, err = run_cli(capsys, "sqrt", str(tmp_path / "big.mat"))
        assert (code, out, err) == (2, "", "line 2, column 3: entry '1e400' lies beyond the double range\n")

    def test_non_square_is_domain_error(self, capsys, tmp_path):
        (tmp_path / "wide.mat").write_text("1 0 0\n0 1 0\n")
        code, out, err = run_cli(capsys, "sqrt", str(tmp_path / "wide.mat"))
        assert (code, out, err) == (1, "", "error: principal_unitary_sqrt: shape (2, 3) is not square\n")

    def test_non_unitary_is_domain_error(self, capsys, tmp_path):
        shear = tmp_path / "shear.mat"
        shear.write_text("1 1\n0 1\n")
        code, _, err = run_cli(capsys, "sqrt", str(shear))
        assert code == 1 and "unitary" in err


class TestRun:
    @pytest.mark.parametrize("d,n", [(2, 1), (2, 3), (3, 2), (4, 3), (10, 2), (12, 2), (16, 1)])
    def test_index_digits_match_the_digit_loop(self, d, n):
        """Each label is the n base-d digits of its index, most significant
        first, each digit written in decimal (so d >= 10 gives wider digits)."""

        def digits(i):
            out = []
            for _ in range(n):
                out.append(str(i % d))
                i //= d
            return "".join(reversed(out))

        assert list(_index_digits(d, n)) == [digits(i) for i in range(d**n)]

    def test_index_digits_are_lazy(self):
        """Labels come one at a time, so 2**64 of them cost nothing up front."""
        labels = _index_digits(2, 64)
        assert next(labels) == "0" * 64 and next(labels) == "0" * 63 + "1"

    def test_bell_circuit(self, capsys):
        code, out, _ = run_cli(capsys, "run", fx("bell.circ"), "--input", "00")
        assert code == 0
        lines = out.splitlines()
        amp_start = lines.index("amplitudes:") + 1
        prob_start = lines.index("probabilities:") + 1
        amps = {}
        for line in lines[amp_start : prob_start - 1]:
            idx, _bits, value = line.split()
            amps[int(idx)] = parse_complex(value)
        probs = {}
        for line in lines[prob_start:]:
            idx, value = line.split()
            probs[int(idx)] = float(value)
        assert abs(abs(amps[0]) ** 2 - 0.5) <= 1e-12
        assert abs(abs(amps[3]) ** 2 - 0.5) <= 1e-12
        assert abs(sum(probs.values()) - 1) <= 1e-12

    def test_byte_identical_output(self, capsys):
        _, out1, _ = run_cli(capsys, "run", fx("bell.circ"), "--input", "00")
        _, out2, _ = run_cli(capsys, "run", fx("bell.circ"), "--input", "00")
        assert out1 == out2

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.circ"
        bad.write_text("H 0\n")
        code, _, err = run_cli(capsys, "run", str(bad), "--input", "0")
        assert code == 2 and "line 1" in err

    @pytest.mark.parametrize("angle", ["nan", "inf"])
    def test_non_finite_angle_is_parse_error(self, capsys, tmp_path, angle):
        circ = tmp_path / "r.circ"
        circ.write_text(f"encoding qubit\nwidth 1\nR({angle}) 0\n")
        code, out, err = run_cli(capsys, "run", str(circ), "--input", "0")
        assert code == 2 and not out
        assert "line 3, column 1" in err and "R expects a real angle" in err

    def test_underscored_angle_is_parse_error(self, capsys, tmp_path):
        circ = tmp_path / "r.circ"
        circ.write_text("encoding qubit\nwidth 1\nR(1_0) 0\n")
        code, out, err = run_cli(capsys, "run", str(circ), "--input", "0")
        assert code == 2 and not out
        assert "line 3, column 1" in err and "'1_0'" in err

    @pytest.mark.parametrize(
        "header,statement", [("width 1_1", "NOT 0"), ("width 2", "NOT 1_0"), ("width 2", "H \u0661")]
    )
    def test_non_ascii_integer_is_parse_error(self, capsys, tmp_path, header, statement):
        circ = tmp_path / "int.circ"
        circ.write_text(f"encoding qubit\n{header}\n{statement}\n")
        code, out, err = run_cli(capsys, "run", str(circ), "--input", "00")
        assert code == 2 and not out and "line" in err

    def test_non_unitary_gate_is_domain_error(self, capsys, tmp_path):
        (tmp_path / "shear.mat").write_text("1 1\n0 1\n")
        circ = tmp_path / "shear.circ"
        circ.write_text("encoding qubit\nwidth 1\nshear.mat 0\n")
        code, out, err = run_cli(capsys, "run", str(circ), "--input", "0")
        assert code == 1 and not out and "not unitary" in err

    def test_non_square_gate_file_is_parse_error(self, capsys, tmp_path):
        """A 2x3 matrix file is refused for its shape, at the statement's gate."""
        (tmp_path / "wide.mat").write_text("1 0 0\n0 1 0\n")
        circ = tmp_path / "wide.circ"
        circ.write_text("encoding qubit\nwidth 1\nwide.mat 0\n")
        code, out, err = run_cli(capsys, "run", str(circ), "--input", "0")
        assert (code, out, err) == (2, "", "line 3, column 1: gate matrix: shape (2, 3) is not square\n")

    def test_non_unitary_controlled_gate_is_domain_error(self, capsys, tmp_path):
        (tmp_path / "shear.mat").write_text("1 1\n0 1\n")
        circ = tmp_path / "cshear.circ"
        circ.write_text("encoding qubit\nwidth 2\nC(shear.mat) 0 1\n")
        code, out, err = run_cli(capsys, "run", str(circ), "--input", "00")
        # ||m^dagger m - I||_F of the controlled shear is sqrt(3).
        assert (code, out, err) == (
            1,
            "",
            "error: step 0: gate matrix is not unitary (residual 1.732e+00, tol 1.000e-09)\n",
        )

    def test_controlled_gate_within_the_gate_tolerance_runs(self, capsys, tmp_path):
        """1.00000000025 X is off unitary by 7.1e-10, inside the gate
        tolerance, which controlled() and circuit files share."""
        (tmp_path / "u.mat").write_text("0 1.00000000025\n1.00000000025 0\n")
        circ = tmp_path / "cu.circ"
        circ.write_text("encoding qubit\nwidth 2\nC(u.mat) 0 1\n")
        code, out, err = run_cli(capsys, "run", str(circ), "--input", "10")
        assert code == 0 and not err and "3 11 1.00000000025+0.0i" in out

    def test_bad_target_is_parse_error_at_gate(self, capsys, tmp_path):
        circ = tmp_path / "range.circ"
        circ.write_text("encoding qubit\nwidth 2\nCNOT 0 2\n")
        code, out, err = run_cli(capsys, "run", str(circ), "--input", "00")
        assert code == 2 and not out
        assert "line 3, column 1: target index 2 out of range for width 2" in err

    def test_wrong_input_width_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "run", fx("bell.circ"), "--input", "0")
        assert code == 1 and err

    @pytest.mark.parametrize("circuit", ["bell.circ", "missing.circ"])
    @pytest.mark.parametrize("bits", ["0x", "", "2", "0 1"])
    def test_malformed_input_is_parse_error_before_any_file_is_read(self, capsys, circuit, bits):
        code, out, err = run_cli(capsys, "run", fx(circuit), "--input", bits)
        assert (code, out) == (2, "")
        assert err == f"line 1, column 1: --input expects a string of 0s and 1s, got {bits!r}\n"


class TestSchmidt:
    def test_bell_state(self, capsys):
        code, out, _ = run_cli(
            capsys, "schmidt", fx("bell_state.vec"), "--dims", "2,2"
        )
        assert code == 0
        lines = dict(line.split(":", 1) for line in out.strip().splitlines())
        coeffs = [float(x) for x in lines["coefficients"].split()]
        assert np.allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-10)
        assert lines["rank"].strip() == "2"
        assert lines["classification"].strip() == "entangled"

    def test_entry_beyond_double_range_is_parse_error(self, capsys, tmp_path):
        (tmp_path / "big.vec").write_text("1\n1e400\n0\n0\n")
        code, out, err = run_cli(capsys, "schmidt", str(tmp_path / "big.vec"), "--dims", "2,2")
        assert (code, out, err) == (2, "", "line 2, column 1: entry '1e400' lies beyond the double range\n")

    def test_bad_dims_is_parse_error(self, capsys):
        code, _, err = run_cli(
            capsys, "schmidt", fx("bell_state.vec"), "--dims", "2;2"
        )
        assert code == 2 and "--dims" in err
        code, _, err = run_cli(capsys, "schmidt", fx("bell_state.vec"), "--dims=-2,-2")
        assert code == 2 and "--dims" in err
        for dims in ("1_2,2", "\u0662,2", "2,+2_0"):
            code, _, err = run_cli(capsys, "schmidt", fx("bell_state.vec"), "--dims", dims)
            assert code == 2 and "--dims" in err
        code, out, _ = run_cli(capsys, "schmidt", fx("bell_state.vec"), "--dims", "+2, 2")
        assert code == 0 and "rank: 2" in out

    @pytest.mark.parametrize(
        "amps,verdict",
        [("1\n1\n1\n1\n", "separable"), ("1\n0\n0\n1\n", "entangled")],
        ids=["separable", "entangled"],
    )
    def test_verdict_from_one_decomposition(self, capsys, monkeypatch, tmp_path, amps, verdict):
        calls = []
        real = ent.svd
        monkeypatch.setattr(ent, "svd", lambda m: calls.append(m) or real(m))
        state = tmp_path / "s.vec"
        state.write_text(amps)
        code, out, _ = run_cli(capsys, "schmidt", str(state), "--dims", "2,2")
        assert code == 0 and out.endswith(f"classification: {verdict}\n") and len(calls) == 1


class TestEnumerate:
    def test_ququart_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", fx("not.tt"), "--encoding", "ququart"
        )
        assert code == 0
        assert out.startswith("count: 4")
        # four matrices, blank-line separated
        assert out.count("\n\n") == 4


class TestVerify:
    """Exit-code contract over the six-fixture set."""

    CASES = [
        ("x.mat", "not.tt", "qubit", 0),
        ("not4.mat", "not.tt", "ququart", 0),
        ("antidiag.mat", "not.tt", "matrix2", 1),
        ("h.mat", "not.tt", "qubit", 1),
        ("bad.mat", "not.tt", "qubit", 2),
        ("x.mat", "bad_table.tt", "qubit", 2),
    ]

    @pytest.mark.parametrize("matrix,table,encoding,expected", CASES)
    def test_exit_codes(self, capsys, matrix, table, encoding, expected):
        code, out, err = run_cli(
            capsys, "verify", fx(matrix), fx(table), "--encoding", encoding
        )
        assert code == expected
        if expected == 0:
            assert "verdict: true" in out
        if expected == 1:
            assert "verdict: false" in out and "failure:" in out
        if expected == 2:
            assert err

    @pytest.mark.parametrize("encoding", ["qubit", "qutrit", "ququart", "matrix2", "pauli"])
    def test_closure_matrix_of_a_bijection(self, capsys, tmp_path, encoding):
        """The XOR closure of not.tt on two bits, the gate
        quantize_irreversible builds from it, verifies against not.tt."""
        with open(fx("not.tt")) as fh:
            f = qlift.io.parse_truth_table(fh.read())
        gate = qlift.quantize_irreversible(f, qlift.builtin_encoding(encoding)).matrix
        path = tmp_path / "closure.mat"
        path.write_text(qlift.io.format_matrix(gate))
        code, out, err = run_cli(capsys, "verify", str(path), fx("not.tt"), "--encoding", encoding)
        assert (code, err) == (0, "") and out.startswith("verdict: true\n")
        assert out.count("logical subspace") == 4

    @pytest.mark.parametrize("tol", ["nan", "-1", "1_0", "inf", "1e400", "\u0661", ""])
    def test_bad_tol_is_parse_error(self, capsys, tol):
        code, out, err = run_cli(capsys, "verify", fx("x.mat"), fx("not.tt"), "--tol", tol)
        assert code == 2 and out == "" and "--tol" in err

    def test_tol_reads_file_scalar_syntax(self, capsys):
        for tol in ("1E-3", " .5", "+0", "-0"):
            code, out, _ = run_cli(capsys, "verify", fx("x.mat"), fx("not.tt"), "--tol", tol)
            assert code == 0 and "verdict: true" in out

    @pytest.mark.parametrize(
        "rows,code,line",
        [
            ("0 0 1\n0 1 0\n1 0 0\n", 0, "fixed complement: ok (residual 0.000e+00)"),
            ("0 1 0\n0 0 1\n1 0 0\n", 1, "fixed complement: VIOLATED (residual 1.000e+00)"),
        ],
    )
    def test_fixed_complement_line(self, capsys, tmp_path, rows, code, line):
        """qutrit has one fixed direction, so verify reports its residual."""
        (tmp_path / "g.mat").write_text(rows)
        got, out, _ = run_cli(capsys, "verify", str(tmp_path / "g.mat"), fx("not.tt"), "--encoding", "qutrit")
        assert got == code and line in out.splitlines()

    def test_antidiagonal_diagnostic_names_subspace(self, capsys):
        _, out, _ = run_cli(
            capsys, "verify", fx("antidiag.mat"), fx("not.tt"), "--encoding", "matrix2"
        )
        assert "logical subspace '0'" in out


def run_module(*args):
    """`python -m qlift` in a child process that imports the qlift under test."""
    src = os.path.dirname(os.path.dirname(qlift.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qlift", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = run_module("synth", fx("not.tt"))
        assert proc.returncode == 0
        assert "1.0+0.0i" in proc.stdout

    def test_closed_stdout_ends_silently(self, tmp_path):
        """A reader that stops early is no input error: the command ends
        with exit 1 and writes nothing to stderr, at exit or before."""
        rng = np.random.default_rng(9)
        rows = (f"{x:09b} -> {y:09b}" for x, y in enumerate(rng.permutation(512)))
        table = tmp_path / "big.tt"
        table.write_text("in 9 out 9\n" + "\n".join(rows) + "\n")
        src = os.path.dirname(os.path.dirname(qlift.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qlift", "synth", str(table)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_help_mentions_h_normalization(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        assert "1/sqrt(2)" in proc.stdout
