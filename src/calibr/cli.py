"""Command-line front end: one subcommand per library operation, strict
configuration parsing, fixed default seeds, and deterministic JSON/CSV
report emission (identical configs produce byte-identical reports)."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import calibrations, cones, currents, duality, fields, grassmann, hessian
from .exterior import ExteriorElement, form_from_json, form_to_json

DEFAULT_SEED = 1729


# ---------------------------------------------------------------------------
# deterministic report emission
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _format_json(obj, indent=0):
    """JSON with insertion-ordered keys and floats at 17 significant digits,
    each with a decimal point or an exponent, so that a reader gets a float
    for a float field whatever its value."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {_format_json(v, indent + 2)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        flat = all(not isinstance(v, (dict, list)) for v in obj)
        if flat and len(obj) <= 8:
            return "[" + ", ".join(_format_json(v) for v in obj) + "]"
        items = [f"{pad}  {_format_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        text = f"{obj:.17g}"
        return text if not text.lstrip("-").isdigit() else text + ".0"
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def emit_report(report: dict, args):
    payload = {"config": _jsonable(_config_from(args)),
               "report": _jsonable(report)}
    text = _format_json(payload) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _config_from(args):
    """Every parsed argument in parser order, less the output paths."""
    cfg = {"subcommand": args.command}
    cfg.update((k, v) for k, v in vars(args).items()
               if k not in ("command", "fn", "output", "emit_csv"))
    return cfg


# ---------------------------------------------------------------------------
# shared loaders
# ---------------------------------------------------------------------------

def _load_cal(args):
    if args.cal is None:
        raise ValueError(f"{args.command} needs --cal")
    return calibrations.resolve(args.cal)


def _load_form(path) -> ExteriorElement:
    with open(path) as fh:
        return form_from_json(json.load(fh))


def _load_field(spec, n):
    if spec.startswith("builtin:"):
        return fields.builtin_field(spec.split(":", 1)[1], n)
    with open(spec) as fh:
        return fields.field_from_json(json.load(fh), n=n)


def _parse_probes(spec, n):
    if spec.startswith("grid:"):
        # grid:LO..HI:K  ->  K^n lattice (capped)
        body = spec[len("grid:"):]
        rng_part, k = body.rsplit(":", 1)
        lo, hi = (float(v) for v in rng_part.split(".."))
        k = int(k)
        if k ** n > 4096:
            raise ValueError(f"grid too large: {k}^{n} points")
        axes = [np.linspace(lo, hi, k)] * n
        mesh = np.meshgrid(*axes, indexing="ij")
        probes = np.column_stack([m.ravel() for m in mesh])
    else:
        probes = _load_array(spec)
    if probes.size == 0:
        raise ValueError(f"probe set {spec!r} is empty")
    return probes


def _load_array(path):
    with open(path) as fh:
        return np.asarray(json.load(fh), dtype=float)


def _samples_for(cal, args):
    return grassmann.sample_grassmannian(
        cal, tol=getattr(args, "tol", 1e-6), count=args.count, seed=args.seed)


def _cone_samples_for(cal, args):
    """The sample a cone query needs: an empty one on a Kaehler form, whose
    exact route reads no sample, else `_samples_for`.  A count below 1 or a
    tol below 0 or NaN goes to `_samples_for` on every form, and is
    rejected there."""
    if (args.count >= 1 and args.tol >= 0
            and grassmann.kaehler_structure(cal.form) is not None):
        return grassmann.PlaneSampleSet(np.empty((0, cal.n, cal.p)), [],
                                        args.tol, 0)
    return _samples_for(cal, args)


def _load_mesh(spec, cal=None):
    if spec.startswith("builtin:disc:"):
        m = int(spec.rsplit(":", 1)[1])
        return currents.disc_mesh(m, cal=cal)
    if spec.startswith("builtin:graph:"):
        m = int(spec.rsplit(":", 1)[1])
        return currents.graph_curve_mesh(m, cal=cal)
    return currents.read_mesh(spec, cal=cal)


# ---------------------------------------------------------------------------
# subcommands: each returns (report, exit code); main emits the report
# ---------------------------------------------------------------------------

def cmd_catalogue(args):
    if args.dump:
        return calibrations.resolve(args.dump).to_json(), 0
    rows = calibrations.list_catalogue()
    return {"entries": [{"name": nm, "n": n, "p": p, "terms": t}
                        for nm, n, p, t in rows]}, 0


def cmd_comass(args):
    form = _load_form(args.form) if args.form else _load_cal(args).form
    res = grassmann.comass(form, multistarts=args.multistarts,
                           max_iter=args.max_iter, tol=args.tol,
                           seed=args.seed)
    return {"value": res.value, "exact": res.exact,
            "saturated": res.saturated,
            "converged": res.converged, "multistarts": res.multistarts,
            "capped": res.capped, "frame": res.plane.frame}, 0


def cmd_gsample(args):
    cal = _load_cal(args)
    ss = grassmann.sample_grassmannian(cal, tol=args.tol, count=args.count,
                                       seed=args.seed)
    report = {"calibration": cal.name, "requested": args.count,
              "accepted": len(ss), "exhausted": ss.exhausted,
              "exact": ss.exact, "values": list(ss.values)}
    if args.emit_csv:
        header = [f"frame_{r}_{c}" for r in range(cal.p) for c in range(cal.n)]
        rows = [[*pl.frame.ravel().tolist(), v]
                for pl, v in zip(ss.planes, ss.values)]
        write_csv(args.emit_csv, header + ["phi_value"], rows)
        report["csv"] = args.emit_csv
    return report, 0


def cmd_reduce(args):
    cal = _load_cal(args)
    res = grassmann.reduce_calibration(cal, _samples_for(cal, args))
    return {"dim_W": res.W.shape[0], "elliptic": res.elliptic,
            "psi": form_to_json(res.psi), "W_rows": res.W,
            "witness": res.witness,
            "witness_residual": res.witness_residual}, 0


def cmd_positivity(args):
    cal = _load_cal(args)
    alpha = _load_form(args.form)
    ss = _cone_samples_for(cal, args)
    rep = cones.positivity_classify(alpha, cal, ss, tol=args.tol)
    report = {"status": rep.status, "margin": rep.margin,
              "exact": rep.meta["exact"], "tolerances": rep.tolerances,
              "sample_count": rep.meta.get("sample_count")}
    if rep.witness is not None:
        report["witness_frame"] = rep.witness.frame
    return report, 0 if rep.status != "Outside" else 1


def cmd_lemma25(args):
    cal = _load_cal(args)
    xi = _load_form(args.pvector)
    ss = _cone_samples_for(cal, args)
    gens = grassmann.random_plane_set(cal.n, cal.p, count=args.generators,
                                      seed=args.seed)
    rep = cones.lemma_2_5_check(xi, cal, ss, gens, seed=args.seed)
    report = {"agree": rep.agree, "exact": rep.meta["membership"]["exact"],
              "mass_bracket": list(rep.mass_bracket),
              "conditions": {k: {"holds": v[0], "margin": v[1]}
                             for k, v in rep.conditions.items()}}
    return report, 0 if rep.agree else 1


def cmd_massnorm(args):
    xi = _load_form(args.pvector)
    gens = grassmann.random_plane_set(xi.n, xi.p, count=args.generators,
                                      seed=args.seed)
    upper, lower, meta = cones.mass_norm_estimate(xi, gens, seed=args.seed)
    return {"upper": upper, "lower": lower, **meta}, 0


def cmd_psh(args):
    cal = _load_cal(args)
    f = _load_field(args.field, cal.n)
    probes = _parse_probes(args.probes, cal.n)
    ss = _cone_samples_for(cal, args)
    marks = hessian.psh_classify(f, probes, cal, ss, tol=args.tol,
                                 starts_limit=10, extra_starts=2)
    all_psh = all(m.status != "NotPsh" for m in marks)
    return {"field": f.name,
            "points": [{"x": x, "status": m.status, "margin": m.margin}
                       for x, m in zip(probes, marks)],
            "all_psh": all_psh}, 0 if all_psh else 1


def cmd_modd(args):
    cal = _load_cal(args)
    f = _load_field(args.field, cal.n)
    x = np.array([float(v) for v in args.point.split(",")])
    res = hessian.pluriharmonic_mod_d_residual(
        f, x, cal, samples=_samples_for(cal, args))
    return {"residual": res.residual, "gradient_norm": res.gradient_norm,
            "alpha_fit": form_to_json(res.alpha_fit),
            "sigma_fit": form_to_json(res.sigma_fit)}, 0


def cmd_flat(args):
    cal = _load_cal(args)
    f = _load_field(args.field, cal.n)
    x = np.array([float(v) for v in args.point.split(",")])
    rep = hessian.phi_flat_check(f, x, cal, tol=args.tol, seed=args.seed)
    return {"flat": rep.flat, "worst_value": rep.worst_value,
            "vacuous": rep.vacuous, "exact": rep.exact}, 0 if rep.flat else 1


def cmd_normality(args):
    cal = _load_cal(args)
    rep = hessian.normality_check(cal, trials=args.trials, seed=args.seed)
    return {"normal": rep.normal, "trials": rep.trials,
            "degenerate": rep.degenerate,
            "worst_mismatch": rep.worst_mismatch,
            "failures": len(rep.failures)}, 0 if rep.normal else 1


def cmd_current_check(args):
    cal = _load_cal(args)
    M = _load_mesh(args.mesh, cal=None)
    T = M.to_current()
    gap = currents.calibration_gap(T, cal)
    pos = currents.phi_positive_check(T, cal)
    report = {"mass": gap["mass"], "tphi": gap["tphi"], "gap": gap["gap"],
              "positive": pos["positive"],
              "violations": len(pos["violations"]),
              "boundary_simplices": len(currents.boundary(T))}
    if args.emit_csv:
        phi = T._tangents @ cal.form.to_coeff_vector()
        write_csv(args.emit_csv, ["simplex", "volume", "mult", "phi_value"],
                  zip(range(len(T)), T._volumes.tolist(), T._mults.tolist(),
                      phi.tolist()))
        report["csv"] = args.emit_csv
    return report, 0 if pos["positive"] else 1


def cmd_green(args):
    cal = _load_cal(args)
    M = _load_mesh(args.mesh, cal=cal)
    if args.tests == "builtin:set1":
        tests = [fields.builtin_field(nm, cal.n) for nm in fields.BUILTIN_SET1]
    else:
        tests = [_load_field(t, cal.n) for t in args.tests.split(";")]
    res = currents.green_check(M, args.x_index, tests, cal)
    return {"exact_disc": res.exact_disc, "residuals": res.residuals,
            "mu_sum": res.meta["mu_sum"], "mu_min": res.meta["mu_min"]}, 0


def cmd_maxprinciple(args):
    cal = _load_cal(args)
    M = _load_mesh(args.mesh, cal=cal)
    f = _load_field(args.field, cal.n)
    ss = _samples_for(cal, args) if args.mode == "bounds" else None
    rep = currents.max_principle_check(M, f, args.mode, cal, samples=ss)
    return {"ok": rep.ok, "precondition_ok": rep.precondition_ok,
            "details": rep.details}, 0 if rep.ok else 1


def _random_batch(args, cal, ss):
    """The seeded random batch of ``duality`` (plain boundary alternatives)
    or ``jensen`` (hull alternatives with K = sites 0-3 and x = site 4)."""
    rows = []
    for inst in range(args.random):
        if args.command == "duality":
            rng = grassmann.rng_stream(args.seed, inst)
            sites = rng.uniform(-1, 1, size=(4, cal.n))
            model = duality.build_boundary_model(
                cal, sites, ss, degree=args.deg, planes_per_site=3)
            A, _ = duality.assemble_boundary_model(
                model, np.zeros(len(model.test_family)))
            S = A @ np.abs(rng.standard_normal(A.shape[1]))
            if inst % 2 == 1:
                S = S * rng.choice([-1.0, 1.0], size=len(S))
            res = duality.boundary_alternative(model, S)
        else:
            rng = grassmann.rng_stream(args.seed, 5000 + inst)
            pts = rng.uniform(-1, 1, size=(5, cal.n))
            model = duality.build_jensen_model(
                cal, pts, ss, degree=args.deg, planes_per_site=4)
            res = duality.jensen_alternative(model, [0, 1, 2, 3], 4)
        rows.append((inst, res.primal, res.dual or "None", res.consistent,
                     res.boundary_tie))
    ok = sum(1 for r in rows if r[3] or r[4])
    if args.emit_csv:
        write_csv(args.emit_csv,
                  ["instance", "primal", "dual", "consistent", "tie"], rows)
    report = {"instances": args.random, "consistent": ok,
              "all_consistent": ok == args.random}
    return report, 0 if ok == args.random else 1


def _alternative_inputs(args, *flags):
    """Calibration and plane sample of ``duality`` or ``jensen``, once
    --random or every flag naming an input of one alternative is given."""
    if args.random is not None and args.random < 1:
        raise ValueError(f"--random must be at least 1, got {args.random}")
    missing = [f"--{k}" for k in flags if getattr(args, k) is None]
    if missing and not args.random:
        raise ValueError(f"{args.command} needs {' and '.join(missing)} "
                         "(or --random N)")
    cal = _load_cal(args)
    return cal, _samples_for(cal, args)


def _alternative_report(res):
    report = {"primal": res.primal, "dual": res.dual,
              "margin": res.margin, "consistent": res.consistent,
              "tie": res.boundary_tie, "model": res.meta}
    return report, 0 if res.consistent or res.boundary_tie else 1


def cmd_duality(args):
    cal, ss = _alternative_inputs(args, "sites", "boundary")
    if args.random:
        return _random_batch(args, cal, ss)
    sites, S = _load_array(args.sites), _load_array(args.boundary)
    model = duality.build_boundary_model(cal, sites, ss, degree=args.deg)
    return _alternative_report(
        duality.boundary_alternative(model, S, lam=args.lam))


def cmd_jensen(args):
    cal, ss = _alternative_inputs(args, "sites", "K", "x")
    if args.random:
        return _random_batch(args, cal, ss)
    model = duality.build_jensen_model(cal, _load_array(args.sites), ss,
                                       degree=args.deg)
    K = [int(v) for v in args.K.split(",")]
    return _alternative_report(duality.jensen_alternative(model, K, args.x))


def cmd_verify_all(args):
    """Prints one line per criterion; the only handler with no report."""
    from . import acceptance
    results = acceptance.run_all(args.seed)
    all_ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} - {res.name}: {res.summary}  [{res.seconds:.1f}s]")
        all_ok = all_ok and res.passed
    total = sum(r.seconds for r in results)
    print(f"{'PASS' if all_ok else 'FAIL'} - total {total:.1f}s")
    return None, 0 if all_ok else 1

# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="calibr",
        description="numerical operators, cones and dualities of calibrated "
                    "geometry in flat R^n")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, cal=True):
        if cal:
            p.add_argument("--cal", help="catalogue selector or JSON path")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--output", "-o", help="write the JSON report here")

    p = sub.add_parser("catalogue", help="list or dump catalogue entries")
    p.add_argument("--dump", help="catalogue selector to dump")
    common(p, cal=False)
    p.set_defaults(fn=cmd_catalogue)

    p = sub.add_parser("comass", help="comass: closed form in degrees 1, 2, "
                       "n-2, n-1 and n, else multistart ascent")
    p.add_argument("--form", help="JSON form spec (overrides --cal)")
    p.add_argument("--multistarts", type=int, default=200)
    p.add_argument("--max-iter", type=int, default=600)
    p.add_argument("--tol", type=float, default=1e-12)
    common(p)
    p.set_defaults(fn=cmd_comass)

    p = sub.add_parser("gsample", help="sample the phi-Grassmannian")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--emit-csv")
    common(p)
    p.set_defaults(fn=cmd_gsample)

    p = sub.add_parser("reduce", help="variable-involvement reduction")
    p.add_argument("--count", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-6)
    common(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("positivity", help="classify a form against the cone")
    p.add_argument("--form", required=True)
    p.add_argument("--count", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-6)
    common(p)
    p.set_defaults(fn=cmd_positivity)

    p = sub.add_parser("lemma25", help="three-way membership equivalence")
    p.add_argument("--pvector", required=True)
    p.add_argument("--count", type=int, default=40)
    p.add_argument("--generators", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-6)
    common(p)
    p.set_defaults(fn=cmd_lemma25)

    p = sub.add_parser("massnorm", help="bracket the mass norm")
    p.add_argument("--pvector", required=True)
    p.add_argument("--generators", type=int, default=40)
    common(p, cal=False)
    p.set_defaults(fn=cmd_massnorm)

    p = sub.add_parser("psh", help="classify plurisubharmonicity at probes")
    p.add_argument("--field", required=True)
    p.add_argument("--probes", required=True)
    p.add_argument("--count", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-8)
    common(p)
    p.set_defaults(fn=cmd_psh)

    p = sub.add_parser("modd", help="pluriharmonic-mod-d residual at a point")
    p.add_argument("--field", required=True)
    p.add_argument("--point", required=True, help="comma-separated coords")
    p.add_argument("--count", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-6)
    common(p)
    p.set_defaults(fn=cmd_modd)

    p = sub.add_parser("flat", help="level-set flatness at a point")
    p.add_argument("--field", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    common(p)
    p.set_defaults(fn=cmd_flat)

    p = sub.add_parser("normality", help="random-hyperplane normality check")
    p.add_argument("--trials", type=int, default=50)
    common(p)
    p.set_defaults(fn=cmd_normality)

    p = sub.add_parser("current-check",
                       help="mass/boundary/positivity of a meshed current")
    p.add_argument("--mesh", required=True)
    p.add_argument("--emit-csv")
    common(p)
    p.set_defaults(fn=cmd_current_check)

    p = sub.add_parser("green", help="Poisson-Jensen residuals on a disc mesh")
    p.add_argument("--mesh", required=True)
    p.add_argument("--x-index", type=int, default=0)
    p.add_argument("--tests", default="builtin:set1")
    common(p)
    p.set_defaults(fn=cmd_green)

    p = sub.add_parser("maxprinciple", help="discrete maximum principle")
    p.add_argument("--mesh", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--mode", choices=["bounds", "lemma58"], default="bounds")
    p.add_argument("--count", type=int, default=40)
    common(p)
    p.set_defaults(fn=cmd_maxprinciple)

    p = sub.add_parser("duality", help="boundary alternative (Farkas pair)")
    p.add_argument("--sites")
    p.add_argument("--boundary", help="JSON list of S(beta_k) values")
    p.add_argument("--deg", type=int, default=2)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=None)
    p.add_argument("--random", type=int, default=None)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--emit-csv")
    common(p)
    p.set_defaults(fn=cmd_duality)

    p = sub.add_parser("jensen", help="hull alternative (Farkas pair)")
    p.add_argument("--sites")
    p.add_argument("--K", help="comma-separated K site indices")
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--deg", type=int, default=2)
    p.add_argument("--random", type=int, default=None)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--emit-csv")
    common(p)
    p.set_defaults(fn=cmd_jensen)

    p = sub.add_parser("verify-all", help="run the acceptance suite")
    common(p, cal=False)
    p.set_defaults(fn=cmd_verify_all)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        report, code = args.fn(args)
        if report is not None:
            emit_report(report, args)
        return code
    except (ValueError, OSError, json.JSONDecodeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
