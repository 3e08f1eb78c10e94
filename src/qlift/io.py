"""File formats and the line-oriented circuit language.

Three formats share the same scalar syntax: complex entries are written
``a+bi`` / ``a-bi`` (``i`` suffix, no spaces inside an entry), bare reals and
bare imaginaries are accepted on input, ``#`` starts a comment, and blank
lines are ignored.  Printing uses the shortest decimal representation that
round-trips a double (17 significant digits at most).

Matrix file        one row per line, entries whitespace-separated.
State file         amplitudes in the matrix syntax, flattened row-major
                   (conventionally one amplitude per line).
Truth table        header ``in <m> out <n>``, then ``<input> -> <output>``
                   lines; all 2^m inputs must appear exactly once.
Encoding file      header ``dim <d>``, then ``0:`` and ``1:`` sections whose
                   lines are basis vectors (d entries each), and an optional
                   ``fixed:`` section.
Circuit file       header lines ``encoding <name|file>`` and ``width <n>``,
                   then statements ``GATE t0 [t1 ...]`` where GATE is one of
                   NOT, SQRT_NOT, H, R(<radians>), CNOT, C(<2x2 matrix file>),
                   SWAP, or a path to a matrix file.

All parse failures are reported as diagnostics with 1-based line and column
positions, collected into a ParseError.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

import numpy as np

from .encodings import BUILTIN_ENCODINGS, Encoding, _bit_strings, _check_bits, builtin_encoding
from .linalg import _square, as_array
from .simulator import Circuit, CircuitStep, _check_targets
from .synthesis import NAMED_GATES, ClassicalFunction, _check_arities, _controlled_block, _missing_inputs, named_gate

__all__ = [
    "Diagnostic",
    "ParseError",
    "format_complex",
    "parse_complex",
    "format_matrix",
    "parse_matrix",
    "parse_state",
    "format_truth_table",
    "parse_truth_table",
    "parse_encoding_file",
    "Statement",
    "CircuitDocument",
    "parse_circuit",
    "format_circuit",
]


@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    message: str

    def __str__(self):
        return f"line {self.line}, column {self.column}: {self.message}"


class ParseError(ValueError):
    """Raised when parsing fails; carries every collected diagnostic."""

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


# Numbers are ASCII: Python's int() and float() also take underscores and
# other scripts' digits, and \d matches those digits too.
_DIGITS = "[0-9]+"
_INT_RE = re.compile(rf"[+-]?{_DIGITS}")
_UNSIGNED = rf"(?:{_DIGITS}(?:\.[0-9]*)?|\.{_DIGITS})(?:[eE][+-]?{_DIGITS})?"
_FLOAT = rf"[+-]?{_UNSIGNED}"
_FLOAT_RE = re.compile(_FLOAT)
# A bare real, or an optional real part followed by a signed (or, without a
# real part, optionally signed) imaginary coefficient that may be omitted.
_COMPLEX_RE = re.compile(
    rf"(?P<real>{_FLOAT})|(?:(?P<re>{_FLOAT})(?=[+-]))?(?P<im>[+-]?(?:{_UNSIGNED})?)[iI]"
)


def format_complex(z: complex) -> str:
    """Canonical a+bi form with round-trippable decimals."""
    z = complex(z)
    re_part, im_part = z.real, z.imag
    if np.signbit(im_part):
        return f"{re_part!r}-{-im_part!r}i"
    return f"{re_part!r}+{im_part!r}i"


def parse_complex(token: str) -> complex:
    """Parse a scalar entry: bare real, bare imaginary, or a+bi."""
    token = token.strip()
    if not token:
        raise ValueError("empty entry")
    m = _COMPLEX_RE.fullmatch(token)
    if m is None:
        kind = "complex" if token.endswith(("i", "I")) else "numeric"
        raise ValueError(f"bad {kind} entry {token!r}")
    if m["real"] is not None:
        return complex(float(m["real"]), 0.0)
    im = m["im"]
    im_val = float(im) if im.strip("+-") else float(im + "1")
    return complex(float(m["re"] or 0.0), im_val)


def _parse_entry(token: str) -> complex:
    """parse_complex, and a ValueError for a value beyond the double range."""
    z = parse_complex(token)
    if not np.isfinite(z):
        raise ValueError(f"entry {token!r} lies beyond the double range")
    return z


def _parse_int(token: str, what: str = "value") -> int:
    """Parse an integer, [+-]?[0-9]+; anything else is a ValueError."""
    if _INT_RE.fullmatch(token) is None:
        raise ValueError(f"{what} must be an integer, got {token!r}")
    return int(token)


def _parse_float(token: str) -> float:
    """Parse a finite real in the scalar syntax; anything else, including a
    value beyond the double range, is a ValueError."""
    if _FLOAT_RE.fullmatch(token) is None or not np.isfinite(float(token)):
        raise ValueError(f"bad real {token!r}")
    return float(token)


def _lines(text: str, empty_message: str) -> list[tuple[int, str]]:
    """(line_number, content) of each line that is not blank once its
    comment is stripped; a ParseError at (1, 1) when there is none."""
    lines = [(ln, raw.split("#", 1)[0]) for ln, raw in enumerate(text.splitlines(), start=1)]
    lines = [(ln, content) for ln, content in lines if content.strip()]
    if not lines:
        raise ParseError([Diagnostic(1, 1, empty_message)])
    return lines


_TOKEN_RE = re.compile(r"\S+")


def _tokens(content: str):
    """(column, token) pairs, columns 1-based."""
    return [(m.start() + 1, m.group()) for m in _TOKEN_RE.finditer(content)]


def _header(line: tuple[int, str], message: str, *keywords: str, least: int) -> list[int]:
    """The integers of a header line `keyword <int> [keyword <int> ...]`,
    each at least `least`; otherwise a ParseError with `message` at the
    line's first token."""
    ln, content = line
    toks = _tokens(content)
    words = [tok for _, tok in toks]
    if len(words) == 2 * len(keywords) and tuple(words[::2]) == keywords:
        try:
            values = [_parse_int(word) for word in words[1::2]]
            if min(values) >= least:
                return values
        except ValueError:
            pass
    raise ParseError([Diagnostic(ln, toks[0][0], message)])


def _entries(ln: int, tokens, parse, diagnostics: list[Diagnostic]) -> list | None:
    """`parse` applied to each (column, token) of line `ln`.  Each token it
    rejects with a ValueError adds a diagnostic at its column, and the result
    is None."""
    values = []
    for col, tok in tokens:
        try:
            values.append(parse(tok))
        except ValueError as exc:
            diagnostics.append(Diagnostic(ln, col, str(exc)))
    return values if len(values) == len(tokens) else None


def format_matrix(m) -> str:
    a = as_array(m, 2)
    return "\n".join(" ".join(format_complex(z) for z in row) for row in a)


def _parse_rows(text: str) -> list[list[complex]]:
    """The rows of the matrix syntax, all of the first row's length."""
    rows: list[list[complex]] = []
    diagnostics: list[Diagnostic] = []
    for ln, content in _lines(text, "no matrix data found"):
        row = _entries(ln, _tokens(content), _parse_entry, diagnostics)
        if not diagnostics and rows and len(row) != len(rows[0]):
            diagnostics.append(
                Diagnostic(ln, 1, f"row has {len(row)} entries, expected {len(rows[0])}")
            )
        rows.append(row)
    if diagnostics:
        raise ParseError(diagnostics)
    return rows


def parse_matrix(text: str) -> np.ndarray:
    """Parse the matrix text format; raises ParseError on any malformed row."""
    return as_array(np.array(_parse_rows(text), dtype=np.complex128), 2)


def parse_state(text: str) -> np.ndarray:
    """Parse an amplitude vector (matrix syntax, flattened row-major)."""
    return as_array(np.array([z for row in _parse_rows(text) for z in row], dtype=np.complex128), 1)


def parse_truth_table(text: str) -> ClassicalFunction:
    """Parse the truth-table format into a ClassicalFunction."""
    lines = _lines(text, "empty truth table")
    m, n = _header(lines[0], "expected header 'in <m> out <n>'", "in", "out", least=1)
    try:
        _check_arities(m, n)
    except ValueError as exc:
        raise ParseError([Diagnostic(lines[0][0], _tokens(lines[0][1])[0][0], str(exc))]) from None
    diagnostics: list[Diagnostic] = []
    first_seen: dict[str, int] = {}
    table: dict[str, str] = {}
    for ln, content in lines[1:]:
        ins, arrow, outs = content.partition("->")
        in_col = len(content) - len(content.lstrip()) + 1
        out_col = len(content) - len(outs.lstrip()) + 1
        ins, outs = ins.strip(), outs.strip()
        try:
            if not arrow or "->" in outs:
                raise ValueError("expected '<input> -> <output>'")
            _check_bits(ins, m, "input")
        except ValueError as exc:
            diagnostics.append(Diagnostic(ln, in_col, str(exc)))
            continue
        try:
            _check_bits(outs, n, "output")
        except ValueError as exc:
            diagnostics.append(Diagnostic(ln, out_col, str(exc)))
            continue
        if ins in table:
            diagnostics.append(
                Diagnostic(ln, in_col, f"duplicate entry for input {ins} (first at line {first_seen[ins]})")
            )
            continue
        table[ins] = outs
        first_seen[ins] = ln
    if len(table) < 2**m:
        missing, more = _missing_inputs(m, table)
        last = lines[-1][0]
        diagnostics += [Diagnostic(last, 1, f"missing entry for input {bits}") for bits in missing]
        diagnostics += [Diagnostic(last, 1, f"and {more} more missing entries")] if more else []
    if diagnostics:
        raise ParseError(diagnostics)
    return ClassicalFunction(m, n, table)


def format_truth_table(f: ClassicalFunction) -> str:
    lines = [f"in {f.arity_in} out {f.arity_out}"]
    lines += [f"{bits} -> {f.table[bits]}" for bits in _bit_strings(f.arity_in)]
    return "\n".join(lines)


def parse_encoding_file(text: str, name: str = "custom") -> Encoding:
    """Parse the encoding description format into an Encoding."""
    lines = _lines(text, "empty encoding file")
    (dim,) = _header(lines[0], "expected header 'dim <d>' with d >= 2", "dim", least=2)
    diagnostics: list[Diagnostic] = []
    sections: dict[str, list[list[complex]]] = {"0:": [], "1:": [], "fixed:": []}
    current: str | None = None
    # Sections with a vector line, valid or not: a bad line has its own
    # diagnostic and does not also leave its section empty.
    listed: set[str] = set()
    for ln, content in lines[1:]:
        if content.strip() in sections:
            current = content.strip()
            continue
        if current is None:
            diagnostics.append(Diagnostic(ln, 1, "expected a section marker '0:', '1:' or 'fixed:'"))
            continue
        listed.add(current)
        vec = _entries(ln, _tokens(content), _parse_entry, diagnostics)
        if vec is not None and len(vec) != dim:
            diagnostics.append(Diagnostic(ln, 1, f"basis vector has {len(vec)} entries, expected {dim}"))
        elif vec is not None:
            sections[current].append(vec)
    if not {"0:", "1:"} <= listed:
        diagnostics.append(Diagnostic(lines[-1][0], 1, "sections '0:' and '1:' must each list at least one vector"))
    if diagnostics:
        raise ParseError(diagnostics)
    try:
        return Encoding(name, dim, sections["0:"], sections["1:"], sections["fixed:"] or None)
    except ValueError as exc:
        raise ParseError([Diagnostic(lines[0][0], 1, str(exc))]) from exc


@dataclass(frozen=True)
class Statement:
    """One parsed circuit statement with its resolved gate matrix.

    Statements compare by gate text and targets only.
    """

    gate_text: str
    targets: tuple[int, ...]
    matrix: np.ndarray = field(compare=False)


@dataclass(frozen=True)
class CircuitDocument:
    """A parsed circuit; documents compare by encoding reference, width and
    statements."""

    encoding_ref: str
    encoding: Encoding = field(compare=False)
    width: int
    statements: tuple[Statement, ...]

    def to_circuit(self) -> Circuit:
        steps = tuple(CircuitStep(s.matrix, s.targets) for s in self.statements)
        return Circuit(self.encoding, self.width, steps)


_GATE_CALL_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)\((.*)\)$")


def _read_file(path: str, base_dir: str | None = None) -> str:
    """Read a UTF-8 text file; a relative path is taken from `base_dir`, or
    from the working directory when it is None."""
    full = path if os.path.isabs(path) or base_dir is None else os.path.join(base_dir, path)
    with open(full, "r", encoding="utf-8") as fh:
        return fh.read()


def _resolve_encoding(ref: str, base_dir: str | None = None) -> Encoding:
    """A built-in encoding by name, or else the encoding file at `ref`
    (named after the file's stem)."""
    if ref in BUILTIN_ENCODINGS:
        return builtin_encoding(ref)
    text = _read_file(ref, base_dir)
    return parse_encoding_file(text, name=os.path.splitext(os.path.basename(ref))[0])


def _resolve_gate(
    tok: str, enc: Encoding, base_dir: str | None
) -> np.ndarray:
    call = _GATE_CALL_RE.match(tok)
    if call:
        head, arg = call.group(1), call.group(2)
        if head == "R":
            try:
                return named_gate("R", enc, _parse_float(arg))
            except ValueError:
                raise ValueError(f"R expects a real angle in radians, got {arg!r}") from None
        if head == "C":
            return _controlled_block(parse_matrix(_read_file(arg, base_dir)))
        raise ValueError(f"unknown parameterized gate {head!r}")
    if tok in NAMED_GATES:
        return named_gate(tok, enc)
    # Anything else is a matrix file path.
    try:
        text = _read_file(tok, base_dir)
    except OSError:
        raise ValueError(f"unknown gate name or unreadable matrix file {tok!r}") from None
    return parse_matrix(text)


def parse_circuit(text: str, base_dir: str | None = None) -> CircuitDocument:
    """Parse (and elaborate) the circuit format.

    Gate names are resolved against the declared encoding, so unknown names,
    arity/dimension mismatches and out-of-range targets are all reported as
    diagnostics with positions.
    """
    lines = _lines(text, "empty circuit: expected 'encoding <name|file>' header")
    ln, content = lines[0]
    toks = _tokens(content)
    if toks[0][1] != "encoding" or len(toks) != 2:
        raise ParseError([Diagnostic(ln, toks[0][0], "expected 'encoding <name|file>' header")])
    encoding_ref = toks[1][1]
    try:
        enc = _resolve_encoding(encoding_ref, base_dir)
    except OSError as exc:
        raise ParseError([Diagnostic(ln, toks[1][0], f"cannot read encoding file: {exc}")]) from exc
    except ParseError as exc:
        raise ParseError(
            [Diagnostic(ln, toks[1][0], f"invalid encoding file {encoding_ref!r}: {exc}")]
        ) from exc

    if len(lines) == 1:
        raise ParseError([Diagnostic(ln, 1, "expected 'width <n>' after the encoding header")])
    (width,) = _header(lines[1], "expected 'width <n>' with n >= 1", "width", least=1)

    diagnostics: list[Diagnostic] = []
    statements: list[Statement] = []
    # Each distinct gate token is resolved and squared once, read-only, and
    # every statement has its targets checked.  A token that fails to
    # resolve is tried again, so each of its statements gets its diagnostic.
    gates: dict[str, np.ndarray] = {}
    for ln, content in lines[2:]:
        (gate_col, gate_tok), *target_toks = _tokens(content)
        if not target_toks:
            diagnostics.append(Diagnostic(ln, gate_col, "statement needs at least one target"))
            continue
        targets = _entries(ln, target_toks, lambda tok: _parse_int(tok, "target"), diagnostics)
        if targets is None:
            continue
        try:
            matrix = gates.get(gate_tok)
            if matrix is None:
                matrix, _ = _square(_resolve_gate(gate_tok, enc, base_dir), "gate matrix")
                matrix.setflags(write=False)
                gates[gate_tok] = matrix
            checked = _check_targets(len(matrix), targets, enc.ambient_dim, width)
        except (ValueError, OSError) as exc:
            diagnostics.append(Diagnostic(ln, gate_col, str(exc)))
            continue
        statements.append(Statement(gate_tok, checked, matrix))

    if diagnostics:
        raise ParseError(diagnostics)
    return CircuitDocument(encoding_ref, enc, width, tuple(statements))


def format_circuit(doc: CircuitDocument) -> str:
    lines = [f"encoding {doc.encoding_ref}", f"width {doc.width}"]
    for s in doc.statements:
        lines.append(" ".join([s.gate_text, *map(str, s.targets)]))
    return "\n".join(lines)
