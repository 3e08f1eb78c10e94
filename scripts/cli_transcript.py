#!/usr/bin/env python3
"""Transcript of the command-line interface, for checking that a change
keeps the CLI's behaviour.

Runs qlift.cli.main in-process for all six subcommands over every fixture in
tests/fixtures and every built-in encoding, with their exit-1 (domain error)
and exit-2 (parse error) cases, and prints each command line's argv, exit
code, stdout and stderr.  The error cases the fixtures lack use small files
written to a temporary directory.  Paths print as <fixtures>/... and
<tmp>/..., so two transcripts diff to the lines whose behaviour differs:

    PYTHONPATH=src python scripts/cli_transcript.py > after.txt
    diff before.txt after.txt
"""

import contextlib
import glob
import io
import os
import shlex
import tempfile

from qlift.cli import main as cli_main
from qlift.encodings import BUILTIN_ENCODINGS
from qlift.synthesis import NAMED_GATES

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "fixtures")

# Inputs for the error cases: a non-unitary, a non-square and an
# out-of-range matrix; encodings whose frames are not orthonormal; circuits
# that fail when built (exit 1) or parsed (exit 2).
EXTRA = {
    "shear.mat": "1 1\n0 1\n",
    "wide.mat": "1 0 0\n0 1 0\n",
    "huge.mat": "1e308 1e308\n1e308 -1e308\n",
    "big.enc": "dim 2\n0:\n1e200 0\n1:\n0 1\n",
    "tiny.enc": "dim 2\n0:\n1e-200 0\n1:\n0 1\n",
    "skew.enc": "dim 2\n0:\n1 0\n1:\n1 1\n",
    "shear.circ": "encoding qubit\nwidth 1\nshear.mat 0\n",
    "cshear.circ": "encoding qubit\nwidth 2\nC(shear.mat) 0 1\n",
    "wide.circ": "encoding qubit\nwidth 1\nwide.mat 0\n",
    "steps.circ": "encoding qubit\nwidth 2\nCNOT 0\nH 5\nFROB 1\n",
    "cwide.circ": "encoding qubit\nwidth 2\nC(wide.mat) 0 1\n",
}


def command_lines(fx, tmp):
    """The argv lists, each a call of the CLI; fx and tmp name a fixture and
    a file of EXTRA."""
    tables = sorted(glob.glob(fx("*.tt")))
    matrices = sorted(glob.glob(fx("*.mat"))) + [tmp(name) for name in ("shear.mat", "wide.mat", "huge.mat")]
    encodings = [*BUILTIN_ENCODINGS, fx("qutrit_like.enc"), tmp("big.enc"), tmp("tiny.enc"), tmp("skew.enc")]
    for enc in encodings:
        for table in tables:
            yield ["synth", table, "--encoding", enc]
            yield ["enumerate", table, "--encoding", enc]
        for name in NAMED_GATES:
            yield ["sqrt", name, "--encoding", enc]
    for name in BUILTIN_ENCODINGS:
        yield ["verify", tmp(f"not_{name}.mat"), fx("not.tt"), "--encoding", name]
        yield ["verify", tmp(f"cond_not_{name}.mat"), fx("cond_not.tt"), "--encoding", name]
    for m in matrices:
        yield ["sqrt", m]
        for table in tables:
            yield ["verify", m, table]
    for tol in ("0", "1e-300", "-1", "nan", "x"):
        yield ["verify", fx("h.mat"), fx("not.tt"), "--tol", tol]
    for circuit, inputs in (
        (fx("bell.circ"), ("00", "01", "10", "11", "0", "0x")),
        (fx("ququart_not.circ"), ("0", "1")),
        *((tmp(c), ("0", "00")) for c in ("shear.circ", "cshear.circ", "wide.circ", "steps.circ", "cwide.circ")),
    ):
        for bits in inputs:
            yield ["run", circuit, "--input", bits]
    for state in sorted(glob.glob(fx("*.vec")) + glob.glob(fx("*.mat"))):
        for dims in ("2,2", "1,4", "4,1", "2,3", "0,2", "x"):
            yield ["schmidt", state, "--dims", dims]
    yield ["synth", fx("missing.tt")]
    yield ["frob"]
    yield []


def run(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main():
    with tempfile.TemporaryDirectory() as scratch:

        def fx(name):
            return os.path.join(FIXTURES, name)

        def tmp(name):
            return os.path.join(scratch, name)

        for name, text in EXTRA.items():
            with open(tmp(name), "w", encoding="utf-8") as fh:
                fh.write(text)
        # The gates synthesis builds under each built-in encoding, for verify.
        for name in BUILTIN_ENCODINGS:
            for table in ("not", "cond_not"):
                code, out, err = run(["synth", fx(f"{table}.tt"), "--encoding", name])
                if code:
                    raise SystemExit(err)
                with open(tmp(f"{table}_{name}.mat"), "w", encoding="utf-8") as fh:
                    fh.write(out)

        def relative(text):
            return text.replace(scratch, "<tmp>").replace(FIXTURES, "<fixtures>")

        for argv in command_lines(fx, tmp):
            code, out, err = run(argv)
            print(relative(f"$ qlift {shlex.join(argv)}"))
            print(f"exit {code}")
            for stream, text in (("out", out), ("err", err)):
                for line in relative(text).splitlines():
                    print(f"{stream}| {line}")


if __name__ == "__main__":
    main()
