"""One fresh process of one workload: import qlift, warm up, run the jobs.

Started by run.py, never by hand.  Prints ``ready <seconds>`` once set-up is
done (the seconds are the warm-up's input generation, which set-up time
excludes), then, except in ``--mode setup``, one JSON line with the results.

A single client runs a closed loop: one job at a time, the next one sent
when the last returns.  The workload repeats whole cycles of job slots
(inputs.py) until ``--seconds`` have passed and at least MIN_JOBS jobs ran.
In ``--mode trace`` it runs TRACE_CYCLES cycles untraced and then the same
cycles again traced, so that the counts repeat exactly for a seed and the two
passes give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings

import numpy as np

import inputs
import jobs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_JOBS = 100
# Median time of reference() on a 2-vCPU Intel Xeon host at 2.0 GHz while
# other tenants were quiet.  Times are reported at this reference speed.
REFERENCE_S = 0.2e-3
# Cycles per pass of a traced run: each pass takes a few seconds today.
TRACE_CYCLES = {"gates": 2, "circuits": 6, "schmidt": 1, "cli": 30}
WARMUP_CYCLE = 1_000_000  # a cycle index no timed pass reaches


_REF_A = np.random.default_rng(0).normal(size=(48, 48)) + 0j
_REF_B = np.zeros(1 << 16, dtype=np.complex128)


def reference() -> float:
    """Seconds for a fixed mix of interpreter work, a small matrix product
    and a 1 MB copy: a probe of how fast the host runs right now."""
    t = time.perf_counter()
    s = 0
    for i in range(2000):
        s += i * i
    _REF_A @ _REF_A
    _REF_B.copy()
    return time.perf_counter() - t


def _warmup_jobs(workload: str, batch: list[dict]) -> list[dict]:
    """The cheap slots of a cycle: every code path once, at small size."""
    if workload == "gates":
        return [j for j in batch if j["n"] <= 2]
    if workload == "circuits":
        return [j for j in batch if j["tag"] in ("qubit/w=12", "qutrit/w=8", "matrix2/w=6", "pauli/w=6")]
    if workload == "schmidt":
        return [j for j in batch if j["dims"][0] * j["dims"][1] <= 16]
    return batch


class Loop:
    """Runs cycles of one workload and records each job as (tag, seconds
    inside qlift, error or None, known defect, RuntimeWarnings raised,
    reference() time around the job)."""

    def __init__(self, q, workload: str, seed: int, scratch: str):
        self.q, self.workload, self.seed, self.scratch = q, workload, seed, scratch
        self.runner = jobs.RUNNERS[workload]

    def cycle(self, k: int) -> list[dict]:
        batch = inputs.make_cycle(self.workload, self.seed, k)
        if self.workload == "cli":
            jobs.write_cli_files(batch, os.path.join(self.scratch, str(k)))
        return batch

    def run(self, batch: list[dict], records: list, tracer=None) -> None:
        for job in batch:
            before = reference()
            clock = jobs.Clock()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    if tracer is None:
                        error = self.runner(self.q, job, clock)
                    else:
                        with tracer.begin_job(job["tag"]):
                            error = self.runner(self.q, job, clock)
                except Exception as exc:  # a job that raises is a failed job
                    error = f"{type(exc).__name__}: {exc}"
            runtime = sum(issubclass(w.category, RuntimeWarning) for w in caught)
            probe = (before + reference()) / 2
            records.append((job["tag"], clock.seconds, error, job.get("known_defect", False), runtime, probe))

    def cycles(self, count: int | None = None, seconds: float | None = None, tracer=None):
        """Whole cycles from cycle 0: `count` of them, or until `seconds` have
        passed and MIN_JOBS jobs ran.  Returns (records, wall seconds)."""
        records: list = []
        start = time.perf_counter()
        k = 0
        while True:
            self.run(self.cycle(k), records, tracer)
            k += 1
            if count is not None and k >= count:
                break
            if seconds is not None and time.perf_counter() - start >= seconds and len(records) >= MIN_JOBS:
                break
        return records, time.perf_counter() - start


def summary(records: list) -> dict:
    """Latency and throughput at reference speed.

    Other tenants of a shared host slow the CPU by up to 2x, in phases of
    seconds to minutes.  So each job's time is scaled by REFERENCE_S over the
    reference() time measured around it.  The unscaled figures are reported
    alongside as raw_*, and the host's speed as the median of the scales."""
    raw = [r[1] for r in records]
    scales = [REFERENCE_S / r[5] for r in records]
    times = [t * k for t, k in zip(raw, scales)]
    failed = [r for r in records if r[2] is not None]
    p90 = _p90(times)
    return {
        "attempted": len(records),
        "failed": len(failed),
        "unexpected_failures": sum(not r[3] for r in failed),
        "errors": sorted({f"{r[0]}: {r[2]}" for r in failed})[:12],
        "timed_s": sum(raw),
        "host_speed": statistics.median(scales),
        "jobs_per_s": len(times) / sum(times),
        "job_p50_ms": 1e3 * statistics.median(times),
        "job_p90_ms": 1e3 * p90,
        "beyond_p90": sum(t > p90 for t in times),
        "raw_jobs_per_s": len(raw) / sum(raw),
        "raw_p50_ms": 1e3 * statistics.median(raw),
        "raw_p90_ms": 1e3 * _p90(raw),
        "runtime_warnings": sum(r[4] for r in records),
    }


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def by_tag(records: list) -> dict:
    tags: dict[str, list] = {}
    for r in records:
        tags.setdefault(r[0], []).append(r[1] * REFERENCE_S / r[5])
    return {t: {"jobs": len(v), "median_ms": 1e3 * statistics.median(v)} for t, v in sorted(tags.items())}


def traced_run(loop: Loop, workload: str) -> dict:
    n = TRACE_CYCLES[workload]
    plain, _ = loop.cycles(count=n)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = loop.cycles(count=n, tracer=tracer)
    finally:
        tracer.remove()
    base, with_trace = summary(plain), summary(traced)
    layers = tracer.metrics()
    layers["numpy.runtime_warnings"] = with_trace["runtime_warnings"]
    layers["trace.overhead_frac"] = 1.0 - with_trace["jobs_per_s"] / base["jobs_per_s"]
    tags = by_tag(plain)
    for tag, layer_s in tracer.by_tag.items():
        tags[tag]["self_ms"] = {k: round(1e3 * v, 3) for k, v in sorted(layer_s.items())}
    return {
        "attempted": base["attempted"] + with_trace["attempted"],
        "failed": base["failed"] + with_trace["failed"],
        "unexpected_failures": base["unexpected_failures"] + with_trace["unexpected_failures"],
        "errors": sorted(set(base["errors"] + with_trace["errors"]))[:12],
        "untraced": base, "traced": with_trace, "layers": layers, "by_tag": tags,
        "spans": tracer.dump(),
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import qlift
    import qlift.cli

    if not os.path.abspath(qlift.__file__).startswith(src + os.sep):
        print(f"imported qlift from {qlift.__file__}, not from {src}", file=sys.stderr)
        return 1

    scratch = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-{os.getpid()}")
    loop = Loop(qlift, args.workload, args.seed, scratch)
    try:
        t = time.perf_counter()
        warm = _warmup_jobs(args.workload, loop.cycle(WARMUP_CYCLE))
        generation = time.perf_counter() - t
        loop.run(warm, [])
        scale = REFERENCE_S / statistics.median(reference() for _ in range(5))
        print(f"ready {generation!r} {scale!r}", flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "run":
            records, wall = loop.cycles(seconds=args.seconds)
            result = {**summary(records), "wall_s": wall, "by_tag": by_tag(records)}
        else:
            result = traced_run(loop, args.workload)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["env"] = environment()
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
