#!/usr/bin/env python3
"""Bit check and in-process A/B timing of this checkout's qlift against another.

First the bits: this checkout's numeric_fingerprint.py and cli_transcript.py
run in subprocesses, once on each tree's src, and one line says both outputs
are identical, or names the routines whose digests differ and counts the
transcript lines that differ.  Then it loads both trees' qlift in one process
under different package names and runs the benchmark's own jobs (perfbench's
``jobs.RUNNERS`` over ``inputs.make_cycle`` cycles) on both trees in
alternation: each cycle runs on one tree and then the other, which tree first
alternating from cycle to cycle.  A block of cycles is timed by the time
spent inside qlift calls.  Prints each side's median and quartiles of the
block times, the ratio of the medians, how many blocks the change won and
the jobs that failed on each side:

    python scripts/ab.py --parent ../parent-checkout --workload gates

With --sites in place of --workload it times a fixed list of call sites
instead (sites(): the square-matrix check, truth tables, synthesis, reports
and roots at small and large sizes), each on inputs that both trees build
alike from one seed.  In each block every site runs on one tree and then
the other, which tree first alternating from block to block, for about
BLOCK_S seconds a side; it prints each side's median and quartiles of the
per-call time over blocks and the change/parent ratio of the medians:

    python scripts/ab.py --parent ../parent-checkout --sites

The perfbench runs in separate processes stay the gate for end-to-end
figures; this shows a change of a few percent that those runs cannot tell
from the noise of the source text alone.
"""

import argparse
import importlib
import importlib.util
import itertools
import os
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1  # the benchmark's first seed
sys.dont_write_bytecode = True  # leave no cache files in perfbench/
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import inputs  # noqa: E402
import jobs  # noqa: E402


def load(root: str, name: str):
    """The qlift package of the checkout at root, imported as `name`, with
    its cli module, which the cli runner calls."""
    src = os.path.join(root, "src", "qlift")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"), submodule_search_locations=[src]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def bits(parent: str) -> str:
    """The bits line: this checkout's fingerprint and transcript scripts,
    each run without bytecode on the parent's src and then on this tree's."""
    outs = []
    for script in ("numeric_fingerprint.py", "cli_transcript.py"):
        for root in (parent, ROOT):
            argv = [sys.executable, "-B", os.path.join(ROOT, "scripts", script)]
            env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
            outs.append(subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout.splitlines())
    fp, fc, tp, tc = outs
    routines = [a.split()[0] for a, b in zip(fp, fc) if a != b]
    lines = sum(a != b for a, b in itertools.zip_longest(tp, tc))
    fingerprint = f"differs on {', '.join(routines)}" if routines else "identical"
    transcript = f"differs on {lines} lines" if lines else "identical"
    return f"bits: fingerprint {fingerprint}; transcript {transcript}"


def run(q, runner, batch) -> tuple[float, int]:
    """(seconds inside qlift, jobs that failed) for one pass over batch."""
    seconds, failed = 0.0, 0
    for job in batch:
        clock = jobs.Clock()
        try:
            failed += runner(q, job, clock) is not None
        except Exception:  # a job that raises is a failed job
            failed += 1
        seconds += clock.seconds
    return seconds, failed


def spread(times: list[float], unit: str = "ms") -> str:
    scale = {"ms": 1e3, "us": 1e6}[unit]
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive") if len(times) > 1 else times * 3
    return f"median {scale * median:.2f} {unit}, quartiles {scale * q1:.2f} .. {scale * q3:.2f} {unit}"


BLOCK_S = 0.005  # seconds of calls per site, side and block
POINTS = (("qubit", 2), ("qubit", 6), ("qubit", 8), ("ququart", 5), ("pauli", 4))  # gates the sites use


def sites(q) -> dict:
    """Site name -> (call, make): make() gives the arguments of one call,
    outside the clock.  Only quantize_irreversible takes a fresh truth table
    per call, as a job does, so that the closure is built in every call."""
    la = importlib.import_module(f"{q.__name__}.linalg")
    rng = np.random.default_rng(SEED)
    enc = {name: q.builtin_encoding(name) for name in ("qubit", "ququart", "pauli")}
    funcs = {n: q.ClassicalFunction(n, n, inputs.random_bijection(rng, n)) for n in (2, 3, 4, 5, 6, 8)}
    table = inputs.random_table(rng, 3, 2)
    xor = q.ClassicalFunction(3, 2, table)
    gate = {(name, n): q.quantize_reversible(funcs[n], enc[name]).matrix for name, n in POINTS}
    gate["xor"] = q.quantize_irreversible(xor, enc["qubit"]).matrix
    dense = {n: inputs.random_unitary(rng, n) for n in (4, 64)}

    def report(name, n):
        return q.quantization_report, lambda: (gate[name, n], funcs[n], enc[name], 1e-9)

    def fresh_xor():
        return q.ClassicalFunction(3, 2, table), enc["qubit"]

    return {
        "_square 4x4": (la._square, lambda: (gate["qubit", 2], "m")),
        "_square 64x64": (la._square, lambda: (gate["qubit", 6], "m")),
        "is_unitary 4x4": (q.is_unitary, lambda: (dense[4], 1e-9)),
        "is_unitary 64x64": (q.is_unitary, lambda: (dense[64], 1e-9)),
        "ClassicalFunction qubit n=3": (q.ClassicalFunction, lambda: (3, 3, funcs[3].table)),
        "ClassicalFunction qubit n=8": (q.ClassicalFunction, lambda: (8, 8, funcs[8].table)),
        "quantize_irreversible qubit 3->2": (q.quantize_irreversible, fresh_xor),
        "report qubit n=2": report("qubit", 2),
        "report qubit 3->2": (q.quantization_report, lambda: (gate["xor"], xor, enc["qubit"], 1e-9)),
        "report qubit n=8": report("qubit", 8),
        "report ququart n=5": report("ququart", 5),
        "report pauli n=4": report("pauli", 4),
        "sqrt ququart n=5": (q.principal_unitary_sqrt, lambda: (gate["ququart", 5],)),
        "sqrt pauli n=4": (q.principal_unitary_sqrt, lambda: (gate["pauli", 4],)),
    }


def time_sites(packages: dict, blocks: int) -> None:
    """Prints each site's per-call median and quartiles over blocks for
    both sides, and the change/parent ratio of the medians."""
    calls = {side: sites(q) for side, q in packages.items()}
    times = {name: {side: [] for side in calls} for name in calls["parent"]}
    counts = {}
    for name, (call, make) in calls["parent"].items():
        call(*make())  # warm caches, then size the block to BLOCK_S
        start = time.perf_counter()
        call(*make())
        counts[name] = max(1, int(BLOCK_S / (time.perf_counter() - start)))
    for b in range(blocks):
        for name, count in counts.items():
            for side in list(calls)[:: 1 if b % 2 == 0 else -1]:
                call, make = calls[side][name]
                batch = [make() for _ in range(count)]
                start = time.perf_counter()
                for args in batch:
                    call(*args)
                times[name][side].append((time.perf_counter() - start) / count)
    print(f"sites: {blocks} blocks, per-call times")
    for name, sides in times.items():
        ratio = statistics.median(sides["change"]) / statistics.median(sides["parent"])
        parent, change = spread(sides["parent"], "us"), spread(sides["change"], "us")
        print(f"{name}: parent {parent}; change {change}; change/parent {ratio:.3f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="root of the checkout to compare against")
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=("gates", "schmidt", "cli"))
    what.add_argument("--sites", action="store_true", help="time the named call sites instead")
    ap.add_argument("--blocks", type=int, default=12)
    ap.add_argument("--cycles", type=int, default=4, help="cycles per block")
    args = ap.parse_args()

    print(bits(os.path.abspath(args.parent)), flush=True)
    sides = {"parent": load(args.parent, "qlift_parent"), "change": load(ROOT, "qlift_change")}
    if args.sites:
        return time_sites(sides, args.blocks)
    runner = jobs.RUNNERS[args.workload]
    times = {side: [] for side in sides}
    failed = dict.fromkeys(sides, 0)
    with tempfile.TemporaryDirectory() as scratch:

        def batch(k: int) -> list[dict]:
            out = inputs.make_cycle(args.workload, SEED, k)
            if args.workload == "cli":
                jobs.write_cli_files(out, os.path.join(scratch, str(k)))
            return out

        warm = batch(0)
        for q in sides.values():
            run(q, runner, warm)
        for b in range(args.blocks):
            block = dict.fromkeys(sides, 0.0)
            for k in range(b * args.cycles, (b + 1) * args.cycles):
                cycle = batch(k)
                for side in list(sides)[:: 1 if k % 2 == 0 else -1]:
                    seconds, fails = run(sides[side], runner, cycle)
                    block[side] += seconds
                    failed[side] += fails
            for side in sides:
                times[side].append(block[side])
    won = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(f"{args.workload}: {args.blocks} blocks of {args.cycles} cycles, seed {SEED}")
    for side in sides:
        print(f"{side}: {spread(times[side])}, {failed[side]} failed jobs")
    ratio = statistics.median(times["change"]) / statistics.median(times["parent"])
    print(f"change/parent median {ratio:.3f}, change won {won} of {args.blocks} blocks")


if __name__ == "__main__":
    main()
