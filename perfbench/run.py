"""qlift benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload gates --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  qlift is imported from the checkout's
``src/``; without it the run fails with exit code 2 and prints no result.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run.  Every metric is printed as
``name value unit``; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("gates", "circuits", "schmidt", "cli")
SETUP_PROBES = 4  # extra fresh processes that only set up; setup_s is the median
DEADLINE_S = 170.0  # the whole run, set-up probes included
# One BLAS thread: every job is a single closed-loop client.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


class RunFailed(Exception):
    pass


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_ratio")):
        return "fraction"
    return "count"


def _run_worker(args, mode: str, deadline: float) -> tuple[float, str]:
    """Run a fresh worker to completion.  Returns the seconds from launch to
    its first timed job, less the warm-up's input generation, at the
    worker's reference speed, and its output after that point.  The worker
    is killed at the deadline."""
    t0 = time.perf_counter()
    cmd = [sys.executable, WORKER, "--root", ROOT, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env={**os.environ, **PINNED_ENV})
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or not line.startswith("ready "):
        raise RunFailed(f"{mode} worker exited with code {proc.returncode}")
    _, generation, scale = line.split()
    return (ready - float(generation)) * float(scale), out


def measure(args, deadline: float) -> tuple[dict, list[float]]:
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(_run_worker(args, "setup", deadline)[0])
    seconds, out = _run_worker(args, "trace" if args.trace else "run", deadline)
    setups.append(seconds)
    return json.loads(out.strip().splitlines()[-1]), setups


def _print_breakdown(by_tag: dict) -> None:
    print("breakdown (tag, jobs, median job ms at reference speed, largest unscaled self times in ms):")
    for tag, row in by_tag.items():
        top = sorted(row.get("self_ms", {}).items(), key=lambda kv: -kv[1])[:3]
        extra = "  " + ", ".join(f"{k} {v:.1f}" for k, v in top) if top else ""
        print(f"  {tag:28s} {row['jobs']:5d} {row['median_ms']:10.3f}{extra}")


def report(args, res: dict, setups: list[float]) -> dict:
    print(f"workload {args.workload}, seed {args.seed}, python {res['env']['python']}, "
          f"numpy {res['env']['numpy']}, BLAS {res['env']['blas']}, nproc {os.cpu_count()}, "
          f"BLAS threads pinned to {PINNED_ENV['OPENBLAS_NUM_THREADS']}")
    _print_breakdown(res["by_tag"])
    for err in res["errors"]:
        print(f"failed: {err}")
    if args.trace:
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(res, fh)
        print(f"spans and breakdown written to {os.path.relpath(path, ROOT)}")
        metrics = {k: (v, _unit(k)) for k, v in res["layers"].items()}
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "jobs_per_s": (res["jobs_per_s"], "1/s"),
            "job_p50_ms": (res["job_p50_ms"], "ms"),
            "job_p90_ms": (res["job_p90_ms"], "ms"),
            "correct_frac": (1.0 - res["failed"] / res["attempted"], "fraction"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        print(f"jobs {res['attempted']} over {res['wall_s']:.1f} s wall "
              f"({res['timed_s']:.1f} s inside qlift), {res['beyond_p90']} beyond p90, "
              f"set-up samples {len(setups)}")
        print(f"host speed {res['host_speed']:.3f} of reference; unscaled: jobs_per_s "
              f"{res['raw_jobs_per_s']!r}, p50 {res['raw_p50_ms']!r} ms, p90 {res['raw_p90_ms']!r} ms")
        print(f"failed_frac {res['failed'] / res['attempted']!r} fraction")
        print(f"numpy.runtime_warnings {res['runtime_warnings']} count")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "qlift", "__init__.py")):
        print(f"no qlift sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        res, setups = measure(args, deadline)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    metrics = report(args, res, setups)
    print(json.dumps({
        "correct": res["unexpected_failures"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
