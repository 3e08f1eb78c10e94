"""Command-line interface.

Exit codes: 0 on success, 1 on a domain error (e.g. a failed verification or a
non-unitary input), 2 on a parse error (malformed files or arguments).
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from . import io as qio
from .encodings import _is_bits
from .entanglement import _separability, schmidt
from .linalg import _GATE_TOL, ConvergenceError, principal_unitary_sqrt
from .simulator import basis_probabilities, run_circuit
from .synthesis import (
    NAMED_GATES,
    enumerate_permutation_quantizations,
    named_gate,
    quantization_report,
    quantize_irreversible,
    quantize_reversible,
)

_GATE_HELP = (
    "circuit gates: NOT, SQRT_NOT, H, R(<radians>), CNOT, C(<2x2 matrix file>), "
    "SWAP, or a path to a matrix file.  H uses the unitary 1/sqrt(2) "
    "normalization; the 1/2-normalized variant sometimes quoted is not "
    "unitary and is rejected."
)


def _index_digits(d: int, n: int):
    """The n base-d digits of each index below d**n, most significant first,
    in index order.  Lazy: one label at a time, whatever d**n is."""
    return map("".join, itertools.product([str(k) for k in range(d)], repeat=n))


def cmd_synth(args) -> int:
    f = qio.parse_truth_table(qio._read_file(args.table))
    enc = qio._resolve_encoding(args.encoding)
    if f.is_reversible:
        gate = quantize_reversible(f, enc)
    else:
        gate = quantize_irreversible(f, enc)
    print(qio.format_matrix(gate.matrix))
    return 0


def cmd_sqrt(args) -> int:
    enc = qio._resolve_encoding(args.encoding)
    if args.matrix_or_name in NAMED_GATES:
        m = named_gate(args.matrix_or_name, enc)
    else:
        m = qio.parse_matrix(qio._read_file(args.matrix_or_name))
    print(qio.format_matrix(principal_unitary_sqrt(m)))
    return 0


def cmd_run(args) -> int:
    if not _is_bits(args.input):
        raise qio.ParseError(
            [qio.Diagnostic(1, 1, f"--input expects a string of 0s and 1s, got {args.input!r}")]
        )
    doc = qio.parse_circuit(qio._read_file(args.circuit), base_dir=os.path.dirname(os.path.abspath(args.circuit)))
    state = run_circuit(doc.to_circuit(), args.input)
    print("amplitudes:")
    labels = _index_digits(doc.encoding.ambient_dim, doc.width)
    for i, (label, amp) in enumerate(zip(labels, state.amplitudes)):
        print(f"{i} {label} {qio.format_complex(amp)}")
    print("probabilities:")
    for i, p in basis_probabilities(state):
        print(f"{i} {p!r}")
    return 0


def cmd_schmidt(args) -> int:
    try:
        dim_a, dim_b = (qio._parse_int(x.strip()) for x in args.dims.split(","))
    except ValueError:
        dim_a = dim_b = 0
    if dim_a < 1 or dim_b < 1:
        raise qio.ParseError(
            [qio.Diagnostic(1, 1, f"--dims expects 'A,B' with positive integers, got {args.dims!r}")]
        )
    vec = qio.parse_state(qio._read_file(args.state))
    result = schmidt(vec, dim_a, dim_b)
    print("coefficients:", " ".join(repr(float(c)) for c in result.coefficients))
    print("rank:", result.rank)
    print("classification:", _separability(result.rank).value)
    return 0


def cmd_enumerate(args) -> int:
    f = qio.parse_truth_table(qio._read_file(args.table))
    enc = qio._resolve_encoding(args.encoding)
    matrices = enumerate_permutation_quantizations(f, enc)
    print("count:", len(matrices))
    for m in matrices:
        print()
        print(qio.format_matrix(m))
    return 0


def cmd_verify(args) -> int:
    try:
        tol = qio._parse_float(args.tol.strip())
    except ValueError:
        tol = -1.0
    if tol < 0:
        raise qio.ParseError(
            [qio.Diagnostic(1, 1, f"--tol expects a finite number >= 0, got {args.tol!r}")]
        )
    m = qio.parse_matrix(qio._read_file(args.matrix))
    f = qio.parse_truth_table(qio._read_file(args.table))
    enc = qio._resolve_encoding(args.encoding)
    report = quantization_report(m, f, enc, tol)
    print("verdict:", "true" if report.ok else "false")
    print(f"unitarity residual: {report.unitarity_residual:.3e}")
    for check in report.subspace_checks:
        print(check.describe())
    if report.complement_residual is not None:
        status = "ok" if report._complement_ok else "VIOLATED"
        print(f"fixed complement: {status} (residual {report.complement_residual:.3e})")
    for msg in report.failures():
        print("failure:", msg)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlift",
        description=(
            "Encode classical bits into quantum state spaces, synthesize gates "
            "from truth tables, analyze bipartite entanglement, and run small "
            "circuits."
        ),
        epilog=_GATE_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a unitary from a truth table")
    p.add_argument("table", help="truth table file")
    p.add_argument("--encoding", default="qubit", help="builtin name or encoding file")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sqrt", help="print the principal square root of a gate")
    p.add_argument("matrix_or_name", help="matrix file, or NOT/SQRT_NOT/H/CNOT/SWAP")
    p.add_argument("--encoding", default="qubit", help="encoding for named gates")
    p.set_defaults(func=cmd_sqrt)

    p = sub.add_parser("run", help="run a circuit file", epilog=_GATE_HELP)
    p.add_argument("circuit", help="circuit file")
    p.add_argument("--input", required=True, help="input bit string")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("schmidt", help="Schmidt-decompose a bipartite state")
    p.add_argument("state", help="state file (amplitudes)")
    p.add_argument("--dims", required=True, help="subsystem dimensions, e.g. 2,2")
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("enumerate", help="list all permutation-matrix quantizations")
    p.add_argument("table", help="truth table file (reversible)")
    p.add_argument("--encoding", default="qubit")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="check a matrix against a truth table")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("table", help="truth table file")
    p.add_argument("--encoding", default="qubit")
    p.add_argument("--tol", default=str(_GATE_TOL))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at shutdown
        return code
    except BrokenPipeError:  # end silently; devnull takes the shutdown flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except qio.ParseError as exc:
        for d in exc.diagnostics:
            print(str(d), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
