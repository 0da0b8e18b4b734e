"""Self-checks of the benchmark itself.

    python3 perfbench/check.py repeat   [--seed 4242] [--seconds 20]
    python3 perfbench/check.py spread   --workload farkas [--seeds 1 2 ...]
    python3 perfbench/check.py baseline

repeat   For every workload: one untraced run and two traced runs of the same
         seed under PYTHONHASHSEED 1 and 2.  All job checks must pass, the
         traced runs must agree exactly on every count-valued per-layer
         metric, and all three runs must produce the same job outputs.
         Prints the tracing overhead (traced / untraced wall_s).  Run it on a
         seed that was not used while tuning the benchmark.
spread   Runs one workload once per seed and prints, per end-to-end metric,
         the median and the interquartile range as a share of the median
         (statistics.quantiles(values, n=4)) next to the metric's bound.
baseline Checks the profiled facts the benchmark's per-layer metrics are
         expected to reproduce, at the library's default parameters.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
WORKLOADS = ("certify", "positivity", "discs", "farkas")


def bench(workload, seed, seconds, trace, hashseed=None):
    env = dict(os.environ)
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, env=env, capture_output=True, text=True,
        check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    result["outputs"] = re.search(r"sha256 (\w+)", out).group(1)
    result["report"] = lines[:-1]
    if trace:
        result["traced_wall_s"] = float(
            re.search(r"traced wall_s (\S+)", out).group(1))
    return result


def counts(result):
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] == "count"}


def declared(kind, key="unit"):
    """{metric name: key} for one metric list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m[key] for m in spec[kind]}


def units(result):
    return {k: m["unit"] for k, m in result["metrics"].items()}


def repeat(args):
    ok = True
    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    for w in WORKLOADS:
        plain = bench(w, args.seed, args.seconds, 0)
        t1 = bench(w, args.seed, args.seconds, 1, hashseed=1)
        t2 = bench(w, args.seed, args.seconds, 1, hashseed=2)
        if units(plain) != end_to_end or units(t1) != per_layer:
            print(f"{w}: metrics differ from those BENCHMARK.json declares")
            ok = False
        correct = plain["correct"] and t1["correct"] and t2["correct"]
        diff = {k: (v, counts(t2)[k]) for k, v in counts(t1).items()
                if counts(t2)[k] != v}
        same_out = plain["outputs"] == t1["outputs"] == t2["outputs"]
        overhead = t1["traced_wall_s"] / plain["metrics"]["wall_s"]["value"]
        print(f"{w}: checks {'pass' if correct else 'FAIL'} "
              f"({plain['attempted']} + {t1['attempted']} + {t2['attempted']}"
              f" jobs); counts repeat: {'yes' if not diff else diff}; "
              f"outputs repeat: {same_out}; tracing overhead "
              f"{overhead:.3f}x (traced {t1['traced_wall_s']:.4g} s, "
              f"untraced {plain['metrics']['wall_s']['value']:.4g} s)")
        ok = ok and correct and not diff and same_out
    return 0 if ok else 1


def spread(args):
    bounds = declared("end_to_end", "bound")
    runs = []
    for seed in args.seeds:
        r = bench(args.workload, seed, args.seconds, 0)
        probe = next(line for line in r["report"] if "host probe" in line)
        print(f"seed {seed}: correct={r['correct']} "
              + " ".join(f"{k}={m['value']:.5g}"
                         for k, m in r["metrics"].items()) + f" [{probe}]",
              flush=True)
        runs.append(r)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        share = (q3 - q1) / med
        print(f"{name}: median {med:.5g}, IQR/median {share:.4f}, "
              f"bound {bounds[name]} (a third: {bounds[name] / 3:.4f})")
    return 0 if all(r["correct"] for r in runs) else 1


def baseline(args):
    """The profiled facts the per-layer metrics should reproduce."""
    def metric(result, name):
        return result["metrics"][name]["value"]

    cert = bench("certify", args.seed, args.seconds, 1)
    share = metric(cert, "grassmann.pullback.self_s") / cert["traced_wall_s"]
    print(f"certify: pullback.self_s is {share:.1%} of the traced wall_s")
    path = HERE / "traces" / f"certify-seed{args.seed}.json.gz"
    with gzip.open(path, "rt") as fh:
        trace = json.load(fh)
    names = {s[0]: s[2] for s in trace["spans"]}
    normality = {}
    for sid, parent, name, phase, t0, t1 in trace["spans"]:
        if name == "hessian.normality" and phase[0] == 0:
            normality[names[parent]] = t1 - t0
    total = sum(normality.values())
    for job, t in sorted(normality.items(), key=lambda kv: -kv[1]):
        print(f"  {job}: {t / total:.1%} of normality time")

    pos = bench("positivity", args.seed, args.seconds, 1)
    print(f"positivity: {metric(pos, 'cones.mass_norm.calls'):.0f} mass-norm "
          f"jobs, {metric(pos, 'cones.mass_norm.cap_hits'):.0f} at the round "
          f"cap; lp.solve.self_s is "
          f"{metric(pos, 'lp.solve.self_s') / pos['traced_wall_s']:.2%} of "
          f"the traced wall_s")

    # one random R^4 job at the library's default parameters
    import worker
    worker.import_library()
    import numpy as np
    import tracing
    from calibr import cones, grassmann
    from oracles import mass_of_2vector
    from workloads import _element
    tr = tracing.Tracer()
    tracing.install(tr)
    gens = grassmann.random_plane_set(4, 2, count=40, seed=args.seed)
    vec = np.random.default_rng(args.seed).standard_normal(6)
    tr.set_phase("defaults")
    t0 = time.perf_counter()
    upper, lower, meta = cones.mass_norm_estimate(_element(vec, 4, 2), gens)
    dt = time.perf_counter() - t0
    c = tr.counters["defaults"]
    print(f"R^4 mass norm at defaults: {dt:.1f} s raw, {meta['rounds']} rounds "
          f"(cap 25), {c['grassmann.value_and_grad.calls']:.0f} "
          f"value_and_grad calls, lp.solve {c['lp.solve.self_s'] / dt:.2%} of "
          f"the time, bracket [{lower!r}, {upper!r}] around the closed form "
          f"{mass_of_2vector(vec, 4)!r}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("task", choices=("repeat", "spread", "baseline"))
    ap.add_argument("--workload", choices=WORKLOADS, default="certify")
    ap.add_argument("--seed", type=int, default=4242)
    ap.add_argument("--seeds", type=int, nargs="+",
                    default=list(range(101, 111)))
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    if args.task == "spread" and len(args.seeds) < 2:
        ap.error("spread needs at least two seeds")
    return {"repeat": repeat, "spread": spread, "baseline": baseline}[
        args.task](args)


if __name__ == "__main__":
    sys.exit(main())
