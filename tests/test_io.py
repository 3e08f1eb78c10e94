import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlift import io as qio
from qlift import simulator as sim
from qlift import synthesis as sy
from helpers import random_complex

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as fh:
        return fh.read()


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestComplexFormat:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1", 1 + 0j),
            ("-0.5", -0.5 + 0j),
            ("2e-3", 0.002 + 0j),
            ("1+2i", 1 + 2j),
            ("0.5-0.25i", 0.5 - 0.25j),
            ("-3i", -3j),
            ("i", 1j),
            ("-i", -1j),
            ("1e2+1e-2i", 100 + 0.01j),
            ("1.5-i", 1.5 - 1j),
        ],
    )
    def test_parse_variants(self, text, value):
        assert qio.parse_complex(text) == value

    @pytest.mark.parametrize("text", ["", "1+", "i2", "2+3", "one", "1 + 2i", "2ii"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            qio.parse_complex(text)

    @given(finite_floats, finite_floats)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_exact(self, re_part, im_part):
        z = complex(re_part, im_part)
        assert qio.parse_complex(qio.format_complex(z)) == z

    @given(st.text(alphabet="0123456789.eE+-iI", max_size=12))
    @settings(max_examples=500, deadline=None)
    def test_matches_python_complex(self, text):
        """Same value, signed zeros included, as complex() with i read as j,
        or both reject."""

        def outcome(parse, s):
            try:
                return repr(parse(s))
            except ValueError:
                return None

        python = outcome(complex, text.replace("i", "j").replace("I", "J"))
        assert outcome(qio.parse_complex, text) == python

    def test_seventeen_digit_values(self):
        z = complex(0.1 + 0.2, -1 / 3)
        assert qio.parse_complex(qio.format_complex(z)) == z


class TestMatrixFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        m = random_complex(rng, (3, 4))
        again = qio.parse_matrix(qio.format_matrix(m))
        assert np.array_equal(m, again)

    def test_comments_and_blanks_ignored(self):
        text = "# heading\n\n1 0\n0 1  # trailing\n"
        assert np.array_equal(qio.parse_matrix(text), np.eye(2).astype(complex))

    def test_ragged_rows_diagnosed(self):
        with pytest.raises(qio.ParseError) as err:
            qio.parse_matrix("1 0\n1\n")
        assert any(d.line == 2 for d in err.value.diagnostics)

    def test_bad_entry_position(self):
        with pytest.raises(qio.ParseError) as err:
            qio.parse_matrix("1 0\n0 zebra\n")
        (diag,) = err.value.diagnostics
        assert diag.line == 2 and diag.column == 3

    def test_empty_input(self):
        with pytest.raises(qio.ParseError):
            qio.parse_matrix("# nothing here\n")

    @pytest.mark.parametrize("parse", [qio.parse_matrix, qio.parse_state])
    def test_entry_beyond_double_range_diagnosed_at_its_position(self, parse):
        """parse_complex reads 1e400 as inf, as complex() does; a file entry
        that large is a diagnostic at its own line and column."""
        with pytest.raises(qio.ParseError) as err:
            parse("1 0\n0 -1e400i\n")
        assert err.value.diagnostics == (qio.Diagnostic(2, 3, "entry '-1e400i' lies beyond the double range"),)

    def test_state_flattening(self):
        vec = qio.parse_state(fixture("bell_state.vec"))
        assert vec.shape == (4,)
        assert vec[0] == vec[3] == 0.7071067811865476 + 0j


class TestTruthTableFormat:
    def test_negation(self):
        f = qio.parse_truth_table(fixture("not.tt"))
        assert f.table == {"0": "1", "1": "0"}
        assert f.is_reversible

    def test_conditional_not(self):
        f = qio.parse_truth_table(fixture("cond_not.tt"))
        assert f.table["10"] == "11" and f.table["11"] == "10"

    def test_missing_input_diagnosed(self):
        with pytest.raises(qio.ParseError, match="missing entry for input 1"):
            qio.parse_truth_table(fixture("bad_table.tt"))

    def test_duplicate_diagnosed(self):
        text = "in 1 out 1\n0 -> 1\n0 -> 0\n1 -> 0\n"
        with pytest.raises(qio.ParseError, match="duplicate"):
            qio.parse_truth_table(text)

    def test_header_required(self):
        with pytest.raises(qio.ParseError, match="header"):
            qio.parse_truth_table("0 -> 1\n1 -> 0\n")

    def test_whitespace_insensitive(self):
        f = qio.parse_truth_table("in 1 out 1\n0->1\n1   ->   0\n")
        assert f.table == {"0": "1", "1": "0"}

    def test_format_round_trip(self):
        f = qio.parse_truth_table(fixture("cond_not.tt"))
        again = qio.parse_truth_table(qio.format_truth_table(f))
        assert again.table == f.table


class TestEncodingFile:
    def test_qutrit_like(self):
        enc = qio.parse_encoding_file(fixture("qutrit_like.enc"), name="custom3")
        assert enc.ambient_dim == 3
        assert np.array_equal(enc.basis0[:, 0], [1, 0, 0])
        assert np.array_equal(enc.fixed[:, 0], [0, 1, 0])

    def test_bad_vector_length(self):
        text = "dim 3\n0:\n1 0\n1:\n0 0 1\nfixed:\n0 1 0\n"
        with pytest.raises(qio.ParseError, match="3 entries|entries, expected 3"):
            qio.parse_encoding_file(text)

    def test_validation_failures_become_diagnostics(self):
        text = "dim 3\n0:\n1 0 0\n0 1 0\n1:\n0 0 1\n"
        with pytest.raises(qio.ParseError, match="equal dimension"):
            qio.parse_encoding_file(text)

    def test_header_required(self):
        with pytest.raises(qio.ParseError, match="dim"):
            qio.parse_encoding_file("0:\n1 0\n1:\n0 1\n")

    def test_entry_beyond_double_range_diagnosed_at_its_position(self):
        with pytest.raises(qio.ParseError) as err:
            qio.parse_encoding_file("dim 2\n0:\n1 0\n1:\n0 1e400\n")
        assert err.value.diagnostics[0] == qio.Diagnostic(5, 3, "entry '1e400' lies beyond the double range")


class TestIntegerSyntax:
    """Integers in every format are ASCII [+-]?[0-9]+: no underscores and no
    digits of other scripts, which int() would read."""

    BAD = ["1_1", "\u0661", "1.0", "0x1", "\uff11"]

    @pytest.mark.parametrize("token", BAD)
    def test_circuit_width(self, token):
        with pytest.raises(qio.ParseError, match="expected 'width <n>'"):
            qio.parse_circuit(f"encoding qubit\nwidth {token}\nH 0\n")

    @pytest.mark.parametrize("token", BAD)
    def test_circuit_target(self, token):
        with pytest.raises(qio.ParseError) as err:
            qio.parse_circuit(f"encoding qubit\nwidth 2\nCNOT 0 {token}\n")
        (diag,) = err.value.diagnostics
        assert (diag.line, diag.column) == (3, 8)
        assert diag.message == f"target must be an integer, got {token!r}"

    @pytest.mark.parametrize("header", [f"in {t} out 1" for t in BAD] + [f"in 1 out {t}" for t in BAD])
    def test_truth_table_header(self, header):
        with pytest.raises(qio.ParseError, match="expected header 'in <m> out <n>'"):
            qio.parse_truth_table(f"{header}\n0 -> 1\n1 -> 0\n")

    @pytest.mark.parametrize("token", BAD + ["\u0662"])
    def test_encoding_dim(self, token):
        with pytest.raises(qio.ParseError, match="expected header 'dim <d>'"):
            qio.parse_encoding_file(f"dim {token}\n0:\n1 0\n1:\n0 1\n")

    def test_signs_reach_the_range_checks(self):
        """-1 and +0 are integers; the range diagnostics judge them."""
        with pytest.raises(qio.ParseError, match="expected 'width <n>' with n >= 1"):
            qio.parse_circuit("encoding qubit\nwidth +0\nH 0\n")
        with pytest.raises(qio.ParseError, match="expected 'width <n>' with n >= 1"):
            qio.parse_circuit("encoding qubit\nwidth -1\nH 0\n")
        with pytest.raises(qio.ParseError, match="target index -1 out of range for width 2"):
            qio.parse_circuit("encoding qubit\nwidth 2\nH -1\n")
        with pytest.raises(qio.ParseError, match="expected header 'in <m> out <n>'"):
            qio.parse_truth_table("in -1 out 1\n0 -> 1\n1 -> 0\n")
        with pytest.raises(qio.ParseError, match="expected header 'dim <d>' with d >= 2"):
            qio.parse_encoding_file("dim -2\n0:\n1 0\n1:\n0 1\n")
        doc = qio.parse_circuit("encoding qubit\nwidth +2\nCNOT +1 -0\n")
        assert doc.width == 2 and doc.statements[0].targets == (1, 0)
        assert qio.parse_truth_table("in +1 out 01\n0 -> 1\n1 -> 0\n").arity_out == 1
        assert qio.parse_encoding_file("dim +2\n0:\n1 0\n1:\n0 1\n").ambient_dim == 2

    @pytest.mark.parametrize("token", ["\u0661", "\u0661.5", "2e\u0663", "\u0663i", "1+\u0662i"])
    def test_scalars_take_ascii_digits_only(self, token):
        with pytest.raises(ValueError, match="bad (numeric|complex) entry"):
            qio.parse_complex(token)
        with pytest.raises(qio.ParseError, match="R expects a real angle"):
            qio.parse_circuit(f"encoding qubit\nwidth 1\nR({token}) 0\n")


class TestCircuitFormat:
    def test_two_step_circuit(self):
        doc = qio.parse_circuit("encoding qubit\nwidth 2\nH 0\nCNOT 0 1\n")
        assert doc.width == 2 and len(doc.statements) == 2
        assert doc.statements[0].gate_text == "H"
        assert np.array_equal(doc.statements[1].matrix, sy.cnot())

    def test_ququart_negation_circuit(self):
        doc = qio.parse_circuit(fixture("ququart_not.circ"), base_dir=FIXTURES)
        (stmt,) = doc.statements
        expected = np.array(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        assert np.array_equal(stmt.matrix, expected)

    def test_missing_header_diagnosed_at_line_one(self):
        with pytest.raises(qio.ParseError) as err:
            qio.parse_circuit("H 0\n")
        (diag,) = err.value.diagnostics
        assert diag.line == 1 and "encoding" in diag.message

    def test_unknown_gate_diagnosed(self):
        with pytest.raises(qio.ParseError) as err:
            qio.parse_circuit("encoding qubit\nwidth 1\nFROB 0\n")
        (diag,) = err.value.diagnostics
        assert diag.line == 3 and "FROB" in diag.message

    def test_dimension_mismatch_diagnosed(self):
        # H is 2x2; one qutrit target needs dimension 3
        with pytest.raises(qio.ParseError, match="dimension"):
            qio.parse_circuit("encoding qutrit\nwidth 1\nH 0\n")

    def test_out_of_range_target_diagnosed(self):
        with pytest.raises(qio.ParseError, match="out of range"):
            qio.parse_circuit("encoding qubit\nwidth 2\nH 5\n")

    def test_duplicate_targets_diagnosed(self):
        with pytest.raises(qio.ParseError, match="duplicate"):
            qio.parse_circuit("encoding qubit\nwidth 2\nCNOT 0 0\n")

    @pytest.mark.parametrize(
        "statement,message",
        [
            ("H 5", "target index 5 out of range for width 2"),
            ("CNOT 1 1", "duplicate target indices (1, 1)"),
            ("CNOT 0", "gate of dimension 4 cannot act on 1 target(s)"),
        ],
    )
    def test_step_rule_diagnosed_at_gate_column(self, statement, message):
        """The simulator's step check, reported at the statement's gate."""
        with pytest.raises(qio.ParseError) as err:
            qio.parse_circuit(f"encoding qubit\nwidth 2\n  {statement}\n")
        (diag,) = err.value.diagnostics
        assert (diag.line, diag.column) == (3, 3)
        assert message in diag.message

    def test_non_unitary_gate_parses_but_does_not_build(self, tmp_path):
        (tmp_path / "shear.mat").write_text("1 1\n0 1\n")
        doc = qio.parse_circuit("encoding qubit\nwidth 1\nshear.mat 0\n", base_dir=str(tmp_path))
        with pytest.raises(ValueError, match="not unitary"):
            doc.to_circuit()

    def test_phase_gate_argument(self):
        doc = qio.parse_circuit("encoding qubit\nwidth 1\nR(3.141592653589793) 0\n")
        assert np.allclose(doc.statements[0].matrix, np.diag([1, -1]))

    def test_non_finite_angle_diagnosed(self):
        for angle in ("nan", "inf"):
            with pytest.raises(qio.ParseError) as err:
                qio.parse_circuit(f"encoding qubit\nwidth 1\nR({angle}) 0\n")
            (diag,) = err.value.diagnostics
            assert (diag.line, diag.column) == (3, 1)
            assert "R expects a real angle" in diag.message

    @pytest.mark.parametrize("angle", ["1_0", "Infinity", "0x10", "1e", "1.0j"])
    def test_angle_outside_scalar_syntax_diagnosed(self, angle):
        """R takes the files' scalar syntax, not everything float() reads."""
        with pytest.raises(qio.ParseError) as err:
            qio.parse_circuit(f"encoding qubit\nwidth 1\nR({angle}) 0\n")
        (diag,) = err.value.diagnostics
        assert (diag.line, diag.column) == (3, 1)
        assert "R expects a real angle" in diag.message

    def test_controlled_gate_from_file(self):
        doc = qio.parse_circuit(
            "encoding qubit\nwidth 2\nC(x.mat) 0 1\n", base_dir=FIXTURES
        )
        assert np.array_equal(doc.statements[0].matrix, sy.cnot())

    def test_non_unitary_controlled_gate_left_to_circuit(self, tmp_path):
        """C(...) checks the 2x2 shape when parsed; unitarity, as for a matrix
        file gate, is checked when the circuit is built."""
        (tmp_path / "shear.mat").write_text("1 1\n0 1\n")
        doc = qio.parse_circuit("encoding qubit\nwidth 2\nC(shear.mat) 0 1\n", base_dir=str(tmp_path))
        expected = np.eye(4, dtype=complex)
        expected[2, 3] = 1
        assert np.array_equal(doc.statements[0].matrix, expected)
        with pytest.raises(ValueError, match="gate matrix is not unitary"):
            doc.to_circuit()

    def test_matrix_file_statement(self):
        doc = qio.parse_circuit(
            "encoding qubit\nwidth 2\nnot4.mat 0 1\n", base_dir=FIXTURES
        )
        assert doc.statements[0].matrix.shape == (4, 4)

    def test_encoding_from_file(self):
        doc = qio.parse_circuit(
            "encoding qutrit_like.enc\nwidth 1\nNOT 0\n", base_dir=FIXTURES
        )
        assert doc.encoding.ambient_dim == 3

    def test_each_gate_token_is_resolved_once(self, monkeypatch):
        calls = {"quantize_reversible": 0, "principal_unitary_sqrt": 0}
        for name in calls:
            real = getattr(sy, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(sy, name, counted)
        doc = qio.parse_circuit("encoding ququart\nwidth 2\n" + "SQRT_NOT 0\nSQRT_NOT 1\n" * 5)
        assert calls == {"quantize_reversible": 1, "principal_unitary_sqrt": 1}
        matrices = [s.matrix for s in doc.statements]
        assert len(matrices) == 10 and all(m is matrices[0] for m in matrices)
        assert not matrices[0].flags.writeable

    def test_a_token_is_resolved_once_after_a_target_diagnostic(self, monkeypatch):
        """A target error at a token's first statement keeps the resolved
        gate: the later statements reuse it."""
        calls = []
        real = sy.principal_unitary_sqrt
        monkeypatch.setattr(sy, "principal_unitary_sqrt", lambda *args: calls.append(1) or real(*args))
        with pytest.raises(qio.ParseError) as err:
            qio.parse_circuit("encoding qubit\nwidth 1\nSQRT_NOT 5\nSQRT_NOT 0\nSQRT_NOT 0\n")
        assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
            (3, 1, "target index 5 out of range for width 1")
        ]
        assert len(calls) == 1

    def test_shared_gate_matrix_checked_once(self, monkeypatch):
        """Ten statements share one matrix: the circuit checks and copies it
        once."""
        calls = []
        real = sim._unitary
        monkeypatch.setattr(sim, "_unitary", lambda *args: calls.append(1) or real(*args))
        circ = qio.parse_circuit("encoding ququart\nwidth 2\n" + "SQRT_NOT 0\n" * 10).to_circuit()
        assert len(calls) == 1
        assert all(gm is circ._checked[0][0] for gm, _ in circ._checked)

    def test_each_gate_token_coerced_once(self, monkeypatch):
        """Thirty statements over two tokens: parsing coerces two matrices
        and the circuit built from them two more."""
        calls = []
        real = sim._square
        for module in (qio, sim):
            monkeypatch.setattr(module, "_square", lambda *args: calls.append(1) or real(*args))
        doc = qio.parse_circuit("encoding qubit\nwidth 3\n" + "H 0\nCNOT 1 2\nH 2\n" * 10)
        assert len(calls) == 2
        doc.to_circuit()
        assert len(calls) == 4

    def test_a_bad_gate_token_is_reported_at_each_statement(self):
        with pytest.raises(qio.ParseError) as err:
            qio.parse_circuit("encoding qubit\nwidth 2\nFROB 0\nH 1\nFROB 1\n")
        assert [(d.line, d.column) for d in err.value.diagnostics] == [(3, 1), (5, 1)]
        assert all("FROB" in d.message for d in err.value.diagnostics)

    def test_all_diagnostics_carry_lines(self):
        bad = "encoding qubit\nwidth 2\nFROB 0\nH 9\nCNOT 0 0\n"
        with pytest.raises(qio.ParseError) as err:
            qio.parse_circuit(bad)
        assert len(err.value.diagnostics) == 3
        assert all(d.line >= 1 and d.column >= 1 for d in err.value.diagnostics)

    def test_round_trip_structural_identity(self):
        doc = qio.parse_circuit(fixture("bell.circ"), base_dir=FIXTURES)
        again = qio.parse_circuit(qio.format_circuit(doc), base_dir=FIXTURES)
        assert doc == again

    def test_round_trip_with_parameters(self):
        text = "encoding qubit\nwidth 2\nR(0.25) 1\nC(x.mat) 0 1\nSWAP 0 1\n"
        doc = qio.parse_circuit(text, base_dir=FIXTURES)
        again = qio.parse_circuit(qio.format_circuit(doc), base_dir=FIXTURES)
        assert doc == again

    def test_equal_documents_hash_equal(self):
        text = fixture("bell.circ")
        docs = {qio.parse_circuit(text), qio.parse_circuit(text)}
        assert len(docs) == 1
        (doc,) = docs
        assert len(set(doc.statements + doc.statements)) == len(doc.statements)

    def test_to_circuit_compares_by_value(self):
        doc = qio.parse_circuit(fixture("bell.circ"), base_dir=FIXTURES)
        assert doc.to_circuit() == doc.to_circuit()
        assert len({doc.to_circuit(), doc.to_circuit()}) == 1

    def test_to_circuit_runs(self):
        from qlift.simulator import run_circuit

        doc = qio.parse_circuit(fixture("bell.circ"), base_dir=FIXTURES)
        out = run_circuit(doc.to_circuit(), "00")
        assert np.allclose(out.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-12)
