"""Run one job through qlift's public API and check its output.

Each runner takes the imported ``qlift`` package and a job from inputs.py and
returns ``(seconds, error)``: the time spent inside qlift calls only (input
preparation and checks are outside the clock) and ``None`` when the output
passed its check, or a one-line reason when it did not.  Functions are looked
up on the package at call time, so the tracer's wrappers are picked up.
"""

from __future__ import annotations

import contextlib
import io
import os
import time

import numpy as np

import inputs as gen

CLASSIFY_TOL = 1e-9
VERIFY_TOL = 1e-9


class Clock:
    """Sums the time spent inside its ``with`` blocks."""

    def __init__(self):
        self.seconds = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._t0
        return False


def _close(a, b) -> bool:
    return np.shape(a) == np.shape(b) and float(np.linalg.norm(np.asarray(a) - b)) <= gen.TOL


def gates(q, job, clock: Clock) -> str | None:
    enc_name, table = job["enc"], job["table"]
    if job["kind"] == "census":
        with clock:
            enc = q.builtin_encoding(enc_name)
            f = q.ClassicalFunction(job["n"], job["n"], table)
            found = q.enumerate_permutation_quantizations(f, enc)
        want = gen.census_count(enc_name, job["n"])
        if len(found) != want:
            return f"enumeration found {len(found)} permutations, expected {want}"
        if want and not any(np.array_equal(m, gen.reference_permutation(enc_name, table)) for m in found):
            return "enumeration misses the canonical permutation"
        return None

    with clock:
        enc = q.builtin_encoding(enc_name)
        f = q.ClassicalFunction(*job["arity"], table)
        if job["kind"] == "reversible":
            gate = q.quantize_reversible(f, enc)
        else:
            gate = q.quantize_irreversible(f, enc)
        good = q.quantization_report(gate.matrix, f, enc, VERIFY_TOL)
    bad_matrix = gen.corrupt(gate.matrix, job["corruption"])
    applied = gate.matrix @ job["classify_input"]
    with clock:
        bad = q.quantization_report(bad_matrix, f, enc, VERIFY_TOL)
        state = q.QuantumState(applied, enc, job["n"])
        verdict = q.classify_state(enc, state, CLASSIFY_TOL)
        root = q.principal_unitary_sqrt(gate.matrix) if job["sqrt"] else None

    if enc_name in gen.ALIGNED:
        rev = table if job["kind"] == "reversible" else gen.closure(table)
        if not np.array_equal(gate.matrix, gen.reference_permutation(enc_name, rev)):
            return "gate differs from the permutation built from the truth table"
    if not good.ok:
        return "the synthesized gate fails verification"
    if bad.ok:
        return f"a corrupted gate ({job['corruption']['kind']}) passes verification"
    kind, word = job["classify_expect"]
    if verdict.kind.value != kind or (word is not None and verdict.bits != word):
        return f"classify_state gave {verdict}, expected {kind} {word or ''}".rstrip()
    if root is not None and not _close(root @ root, gate.matrix):
        return "principal square root does not square back to the gate"
    return None


def circuits(q, job, clock: Clock) -> str | None:
    with clock:
        enc = q.builtin_encoding(job["enc"])
        steps = tuple(q.CircuitStep(g, t, phi) for g, t, phi in job["steps"])
        out = q.run_circuit(q.Circuit(enc, job["width"], steps), job["input"])
    ref = gen.encoded(job["enc"], job["input"])
    amps = out.amplitudes
    overlap = np.vdot(ref, amps)
    if abs(overlap) == 0.0:
        return "mirror circuit output is orthogonal to its input"
    if not _close(amps, (overlap / abs(overlap)) * ref):
        return "mirror circuit output differs from its input beyond a phase"
    return None


def schmidt(q, job, clock: Clock) -> str | None:
    rows, cols = job["dims"]
    with clock:
        result = q.schmidt(job["amps"], rows, cols)
        verdict = q.classify_bipartite(job["amps"], rows, cols)
    want = gen.reference_schmidt(job["amps"], rows, cols)
    if not _close(result.coefficients, want):
        return "Schmidt coefficients differ from LAPACK's singular values"
    if result.rank != job["rank"]:
        return f"Schmidt rank {result.rank}, built with rank {job['rank']}"
    expected = "separable" if job["rank"] == 1 else "entangled"
    if verdict.value != expected:
        return f"classified {verdict.value}, built {expected}"
    return None


def _rows(text: str) -> np.ndarray:
    return np.array(
        [[complex(tok.replace("i", "j")) for tok in line.split()] for line in text.strip().splitlines()]
    )


def _field(text: str, key: str) -> str | None:
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return line[len(key) + 1 :].strip()
    return None


def _probabilities(text: str) -> dict[int, float]:
    lines = text.splitlines()
    start = lines.index("probabilities:") + 1
    return {int(i): float(p) for i, p in (line.split() for line in lines[start:])}


def write_cli_files(jobs: list[dict], directory: str) -> None:
    """Write each case's files into its own subdirectory of `directory`."""
    for k, job in enumerate(jobs):
        case = os.path.join(directory, str(k))
        os.makedirs(case, exist_ok=True)
        for name, text in job["files"].items():
            with open(os.path.join(case, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        job["argv_paths"] = [os.path.join(case, a) if a in job["files"] else a for a in job["argv"]]


def cli(q, job, clock: Clock) -> str | None:
    out, err = io.StringIO(), io.StringIO()
    with clock, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = q.cli.main(job["argv_paths"])
    out, err = out.getvalue(), err.getvalue()
    if code != job["code"]:
        return f"exit code {code}, expected {job['code']}"
    if code == 2:
        return None if err and not out else "parse error without a diagnostic"
    expect = job["expect"]
    if "matrix" in expect and not _close(_rows(out), expect["matrix"]):
        return "printed gate differs from the permutation built from the truth table"
    if "unitary" in expect:
        m = _rows(out)
        if not _close(m.conj().T @ m, np.eye(len(m))):
            return "printed square root is not unitary"
    if "root_of" in expect:
        r = _rows(out)
        if not _close(r @ r, expect["root_of"]):
            return "printed square root does not square back"
    if "probabilities" in expect:
        probs = _probabilities(out)
        if any(abs(probs.get(i, 0.0) - p) > gen.TOL for i, p in expect["probabilities"].items()):
            return "printed probabilities differ from the expected outcome"
    for key in ("rank", "classification", "count", "verdict"):
        if key in expect and _field(out, key) != str(expect[key]):
            return f"printed {key}: {_field(out, key)}, expected {expect[key]}"
    return None


RUNNERS = {"gates": gates, "circuits": circuits, "schmidt": schmidt, "cli": cli}
