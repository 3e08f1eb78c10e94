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


def spread(times: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive") if len(times) > 1 else times * 3
    return f"median {1e3 * median:.2f} ms, quartiles {1e3 * q1:.2f} .. {1e3 * q3:.2f} ms"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="root of the checkout to compare against")
    ap.add_argument("--workload", required=True, choices=("gates", "schmidt", "cli"))
    ap.add_argument("--blocks", type=int, default=12)
    ap.add_argument("--cycles", type=int, default=4, help="cycles per block")
    args = ap.parse_args()

    print(bits(os.path.abspath(args.parent)), flush=True)
    sides = {"parent": load(args.parent, "qlift_parent"), "change": load(ROOT, "qlift_change")}
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
