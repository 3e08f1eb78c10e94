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

from .encodings import BUILTIN_ENCODINGS, Encoding, builtin_encoding
from .linalg import as_array
from .simulator import Circuit, CircuitStep, _check_step
from .synthesis import NAMED_GATES, ClassicalFunction, controlled, named_gate

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


_UNSIGNED = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_FLOAT = rf"[+-]?{_UNSIGNED}"
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


def _content_lines(text: str):
    """Yield (line_number, content) with comments stripped and blanks skipped."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        if content.strip():
            yield ln, content


_TOKEN_RE = re.compile(r"\S+")


def _tokens(content: str):
    """(column, token) pairs, columns 1-based."""
    return [(m.start() + 1, m.group()) for m in _TOKEN_RE.finditer(content)]


def format_matrix(m) -> str:
    a = as_array(m, 2)
    return "\n".join(" ".join(format_complex(z) for z in row) for row in a)


def _parse_rows(text: str) -> tuple[list[list[complex]], list[Diagnostic]]:
    rows: list[list[complex]] = []
    diagnostics: list[Diagnostic] = []
    for ln, content in _content_lines(text):
        row = []
        for col, tok in _tokens(content):
            try:
                row.append(parse_complex(tok))
            except ValueError as exc:
                diagnostics.append(Diagnostic(ln, col, str(exc)))
        rows.append(row)
        if rows and len(row) != len(rows[0]) and not diagnostics:
            diagnostics.append(
                Diagnostic(ln, 1, f"row has {len(row)} entries, expected {len(rows[0])}")
            )
    if not rows and not diagnostics:
        diagnostics.append(Diagnostic(1, 1, "no matrix data found"))
    return rows, diagnostics


def parse_matrix(text: str) -> np.ndarray:
    """Parse the matrix text format; raises ParseError on any malformed row."""
    rows, diagnostics = _parse_rows(text)
    if diagnostics:
        raise ParseError(diagnostics)
    return as_array(np.array(rows, dtype=np.complex128), 2)


def parse_state(text: str) -> np.ndarray:
    """Parse an amplitude vector (matrix syntax, flattened row-major)."""
    rows, diagnostics = _parse_rows(text)
    if diagnostics:
        raise ParseError(diagnostics)
    return as_array(np.array([z for row in rows for z in row], dtype=np.complex128), 1)


_BITS_RE = re.compile(r"^[01]+$")


def parse_truth_table(text: str) -> ClassicalFunction:
    """Parse the truth-table format into a ClassicalFunction."""
    diagnostics: list[Diagnostic] = []
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError([Diagnostic(1, 1, "empty truth table")])
    header_ln, header = lines[0]
    toks = _tokens(header)
    words = [t for _, t in toks]
    m = n = None
    if len(words) == 4 and words[0] == "in" and words[2] == "out":
        try:
            m, n = int(words[1]), int(words[3])
        except ValueError:
            pass
    if m is None or n is None or m < 1 or n < 1:
        raise ParseError(
            [Diagnostic(header_ln, toks[0][0] if toks else 1, "expected header 'in <m> out <n>'")]
        )

    table: dict[str, str] = {}
    first_seen: dict[str, int] = {}
    for ln, content in lines[1:]:
        parts = content.split("->")
        toks = _tokens(content)
        if len(parts) != 2:
            diagnostics.append(Diagnostic(ln, toks[0][0], "expected '<input> -> <output>'"))
            continue
        ins, outs = parts[0].strip(), parts[1].strip()
        if not _BITS_RE.match(ins) or len(ins) != m:
            diagnostics.append(Diagnostic(ln, toks[0][0], f"input must be {m} bits, got {ins!r}"))
            continue
        out_col = content.index("->") + 3
        if not _BITS_RE.match(outs) or len(outs) != n:
            diagnostics.append(Diagnostic(ln, out_col, f"output must be {n} bits, got {outs!r}"))
            continue
        if ins in table:
            diagnostics.append(
                Diagnostic(ln, toks[0][0], f"duplicate entry for input {ins} (first at line {first_seen[ins]})")
            )
            continue
        table[ins] = outs
        first_seen[ins] = ln
    for i in range(2**m):
        bits = format(i, f"0{m}b")
        if bits not in table:
            diagnostics.append(Diagnostic(lines[-1][0], 1, f"missing entry for input {bits}"))
    if diagnostics:
        raise ParseError(diagnostics)
    return ClassicalFunction(m, n, table)


def format_truth_table(f: ClassicalFunction) -> str:
    lines = [f"in {f.arity_in} out {f.arity_out}"]
    for i in range(2**f.arity_in):
        bits = format(i, f"0{f.arity_in}b")
        lines.append(f"{bits} -> {f(bits)}")
    return "\n".join(lines)


def parse_encoding_file(text: str, name: str = "custom") -> Encoding:
    """Parse the encoding description format into an Encoding."""
    diagnostics: list[Diagnostic] = []
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError([Diagnostic(1, 1, "empty encoding file")])
    header_ln, header = lines[0]
    words = header.split()
    dim = None
    if len(words) == 2 and words[0] == "dim":
        try:
            dim = int(words[1])
        except ValueError:
            pass
    if dim is None or dim < 2:
        raise ParseError([Diagnostic(header_ln, 1, "expected header 'dim <d>' with d >= 2")])

    sections: dict[str, list[np.ndarray]] = {"0:": [], "1:": [], "fixed:": []}
    current: str | None = None
    for ln, content in lines[1:]:
        stripped = content.strip()
        if stripped in sections:
            current = stripped
            continue
        if current is None:
            diagnostics.append(Diagnostic(ln, 1, "expected a section marker '0:', '1:' or 'fixed:'"))
            continue
        vec = []
        ok = True
        for col, tok in _tokens(content):
            try:
                vec.append(parse_complex(tok))
            except ValueError as exc:
                diagnostics.append(Diagnostic(ln, col, str(exc)))
                ok = False
        if ok and len(vec) != dim:
            diagnostics.append(Diagnostic(ln, 1, f"basis vector has {len(vec)} entries, expected {dim}"))
            ok = False
        if ok:
            sections[current].append(np.array(vec, dtype=np.complex128))
    if not sections["0:"] or not sections["1:"]:
        diagnostics.append(Diagnostic(lines[-1][0], 1, "sections '0:' and '1:' must each list at least one vector"))
    if diagnostics:
        raise ParseError(diagnostics)
    try:
        return Encoding(name, dim, sections["0:"], sections["1:"], sections["fixed:"] or None)
    except ValueError as exc:
        raise ParseError([Diagnostic(header_ln, 1, str(exc))]) from exc


@dataclass(frozen=True)
class Statement:
    """One parsed circuit statement with its resolved gate matrix.

    Statements compare by gate text and targets only.
    """

    gate_text: str
    targets: tuple[int, ...]
    matrix: np.ndarray = field(compare=False)
    line: int = field(compare=False)


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
                if not re.fullmatch(_FLOAT, arg):
                    raise ValueError(arg)
                return named_gate("R", enc, float(arg))
            except ValueError:
                raise ValueError(f"R expects a real angle in radians, got {arg!r}") from None
        if head == "C":
            inner = parse_matrix(_read_file(arg, base_dir))
            return controlled(inner)
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
    diagnostics: list[Diagnostic] = []
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError([Diagnostic(1, 1, "empty circuit: expected 'encoding <name|file>' header")])

    idx = 0
    ln, content = lines[idx]
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

    idx += 1
    if idx >= len(lines):
        raise ParseError([Diagnostic(ln, 1, "expected 'width <n>' after the encoding header")])
    ln, content = lines[idx]
    toks = _tokens(content)
    width = None
    if toks[0][1] == "width" and len(toks) == 2:
        try:
            width = int(toks[1][1])
        except ValueError:
            pass
    if width is None or width < 1:
        raise ParseError([Diagnostic(ln, toks[0][0], "expected 'width <n>' with n >= 1")])

    statements: list[Statement] = []
    for ln, content in lines[idx + 1 :]:
        toks = _tokens(content)
        gate_col, gate_tok = toks[0]
        if len(toks) == 1:
            diagnostics.append(Diagnostic(ln, gate_col, "statement needs at least one target"))
            continue
        targets = []
        for col, t in toks[1:]:
            try:
                targets.append(int(t))
            except ValueError:
                diagnostics.append(Diagnostic(ln, col, f"target must be an integer, got {t!r}"))
        if len(targets) < len(toks) - 1:
            continue
        try:
            matrix = _resolve_gate(gate_tok, enc, base_dir)
            matrix, checked = _check_step(matrix, targets, enc.ambient_dim, width)
        except (ValueError, OSError) as exc:
            diagnostics.append(Diagnostic(ln, gate_col, str(exc)))
            continue
        statements.append(Statement(gate_tok, checked, matrix, ln))

    if diagnostics:
        raise ParseError(diagnostics)
    return CircuitDocument(encoding_ref, enc, width, tuple(statements))


def format_circuit(doc: CircuitDocument) -> str:
    lines = [f"encoding {doc.encoding_ref}", f"width {doc.width}"]
    for s in doc.statements:
        lines.append(" ".join([s.gate_text, *map(str, s.targets)]))
    return "\n".join(lines)
