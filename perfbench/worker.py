"""Runs one workload in a process of its own: set-up, then the job list in
a closed loop (one caller, each job issued after the previous one returns)
until the time budget is spent and at least one full pass is done.

Prints one JSON line.  `ready_at` is the wall-clock time at which set-up
finished, so the parent can time process start to first job.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
from probe import SpeedLog

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

perf = time.perf_counter


def import_library():
    """Import calibr from this checkout's src/, never from elsewhere."""
    import calibr
    src = (ROOT / "src").resolve()
    if src not in Path(calibr.__file__).resolve().parents:
        raise SystemExit(f"calibr imported from {calibr.__file__}, not {src}")
    import calibr.acceptance  # noqa: F401  (loads every library module)


def openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()
                and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("openblas configuration", blas.get("name")),
            "blas_threads": openblas_threads()}


def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted average of
    all order statistics.  Job lists mix job kinds whose latencies differ
    by 10x, so the plain order statistic jumps whenever two jobs trade
    places; this estimate moves smoothly instead."""
    from scipy.special import betainc
    x = np.sort(values)
    n = len(x)
    edges = betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def tail(values):
    """(latency, percentile): the highest percentile that leaves at least
    ten jobs above it, or the slowest job when there are fewer than 20."""
    n = len(values)
    if n < 20:
        return max(values), 100.0
    return hd_quantile(values, (n - 10) / n), 100.0 * (n - 10) / n


def run_jobs(jobs, seconds, tracer, log):
    """Closed loop over the job list; returns per-job samples of
    (raw seconds, host speed) and the outputs digest of each pass."""
    from oracles import CheckFailed
    spans = []                          # (job, pass, t0, t1)
    digests, failures = [], []
    attempted = failed = 0
    start = perf()
    p = 0
    while True:
        digest = hashlib.sha256()
        for i, job in enumerate(jobs):
            if p > 0 and perf() - start >= seconds:
                break
            if tracer is not None:
                tracer.set_phase((p, i))
                tracer.open("job " + job.name)
            t0 = perf()
            try:
                out, err = job.call(), None
            except Exception:
                out, err = None, traceback.format_exc(limit=3)
            finally:
                t1 = perf()
                if tracer is not None:
                    tracer.close()
            spans.append((i, p, t0, t1))
            attempted += 1
            if err is None:
                try:
                    digest.update(repr(job.check(out)).encode())
                except CheckFailed as exc:
                    err = str(exc)
            if err is not None:
                failed += 1
                digest.update(b"failed")
                failures.append(f"{job.name}: {err}")
        else:
            digests.append(digest.hexdigest())
            p += 1
            if perf() - start < seconds:
                continue
        break
    samples = [[] for _ in jobs]
    factors = {}
    for i, p, t0, t1 in spans:
        f = log.speed(t0, t1)
        samples[i].append((t1 - t0, f))
        factors[(p, i)] = f
    return samples, factors, digests, attempted, failed, failures


def setup(args, log, t0):
    """Import and build the workload.  Returns the jobs, the tracer, and the
    set-up record for the parent: the wall-clock time at which set-up
    finished and the host speed during it."""
    import_library()
    import workloads
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, [workloads])
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    ready_at, t1 = time.time(), perf()
    return jobs, tracer, {"ready_at": ready_at, "speed": log.speed(t0, t1)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    log = SpeedLog()
    log.start()
    try:
        jobs, tracer, record = setup(args, log, perf())
        if args.setup_only:
            print(json.dumps(record))
            return 0
        samples, factors, digests, attempted, failed, failures = run_jobs(
            jobs, args.seconds, tracer, log)
    finally:
        log.stop()
    raw = [statistics.median(d for d, _ in v) for v in samples]
    norm = [statistics.median(d * f for d, f in v) for v in samples]
    tail_s, tail_pct = tail(norm)
    result = {
        **record,
        "jobs": len(jobs), "passes": len(digests),
        "attempted": attempted, "failed": failed, "failures": failures[:5],
        "outputs": digests[0][:16],
        "outputs_repeat": len(set(digests)) == 1,
        "wall_s": sum(norm), "raw_wall_s": sum(raw),
        "job_p50_s": hd_quantile(norm, 0.5),
        "job_tail_s": tail_s, "tail_percentile": tail_pct,
        "median_speed": log.median_speed(),
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        passes = list(range(len(digests)))
        factors["setup"] = record["speed"]
        result["layers"] = tracing.layer_metrics(tracer, factors, passes)
        counts = [tracing.pass_counts(tracer, factors, p) for p in passes]
        result["counts_repeat"] = all(c == counts[0] for c in counts)
        result["spans"] = len(tracer.spans)
        if args.trace_file:
            tracer.dump(args.trace_file, workload=args.workload,
                        seed=args.seed, passes=len(passes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
