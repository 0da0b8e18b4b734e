"""calibr benchmark: one command, four workloads.

    python3 perfbench/run.py --workload certify --seed 1729 --seconds 20 --trace 0

With --trace 0 the last line carries the end-to-end metrics; with --trace 1
it carries the per-layer metrics of a traced run, and the spans are written
to perfbench/traces/<workload>-seed<seed>.json.gz.  The lines before it are
a human-readable report: environment, host-speed probe before and after the
run, job counts and fail_rate, the tail percentile used, raw seconds, and a
digest of the job outputs.

The workload runs in a worker process (see worker.py).  Set-up time is
measured from process start to the first job, as the median over
SETUP_REPEATS processes: the worker and SETUP_REPEATS - 1 processes that
only set up.  All timings are host-speed normalised (see probe.py).  Exits
non-zero, printing no result, when the library cannot be imported or a
process misbehaves.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import REFERENCE_S, host_probe

HERE = Path(__file__).resolve().parent
WORKLOADS = ("certify", "positivity", "discs", "farkas")
SETUP_REPEATS = 3
DEADLINE_S = 170.0

perf = time.perf_counter


def spawn(args, deadline):
    """Run the worker with args; returns (spawn wall time, parsed result)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    started = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - perf(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker exceeded the time limit")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return started, json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    deadline = perf() + DEADLINE_S

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    run_args = common + ["--seconds", str(args.seconds),
                         "--trace", str(args.trace)]
    if args.trace:
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        run_args += ["--trace-file",
                     str(traces / f"{args.workload}-seed{args.seed}.json.gz")]
    try:
        host_probe()                        # warm-up, not reported
        probe_before = host_probe()
        started, res = spawn(run_args, deadline)
        probe_after = host_probe()
        records = [(started, res)]
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                records.append(spawn(common + ["--seconds", "0",
                                               "--setup-only"], deadline))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    raw_setups = [rec["ready_at"] - t for t, rec in records]
    setups = [s * rec["speed"] for s, (_, rec) in zip(raw_setups, records)]
    env = res["env"]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"host probe: {probe_before * 1e6:.3f} us before, "
          f"{probe_after * 1e6:.3f} us after; median host speed in the run "
          f"{res['median_speed']:.3f} x the reference "
          f"({REFERENCE_S * 1e6:g} us), by which timings are normalised")
    print(f"jobs: {res['jobs']} per pass, {res['passes']} complete passes, "
          f"{res['attempted']} attempted, {res['failed']} failed, "
          f"fail_rate {res['failed'] / res['attempted']:.4g} ratio")
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    print(f"outputs: sha256 {res['outputs']} of pass 1, passes agree: "
          f"{res['outputs_repeat']}")
    print(f"job_tail_s is the p{res['tail_percentile']:.4g} of "
          f"{res['jobs']} per-job medians")
    if args.trace:
        print(f"traced wall_s {res['wall_s']:.6g} s (compare with an "
              f"untraced run for the tracing overhead); {res['spans']} spans; "
              f"counts repeat across passes: {res['counts_repeat']}")
        metrics = res["layers"]
    else:
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "job_p50_s": {"value": res["job_p50_s"], "unit": "s"},
            "job_tail_s": {"value": res["job_tail_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "rss_peak_mb": {"value": res["rss_peak_mb"], "unit": "MB"},
        }
        print(f"raw seconds: wall_s {res['raw_wall_s']:.6g}, set-up samples "
              + ", ".join(f"{s:.4f}" for s in raw_setups))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
