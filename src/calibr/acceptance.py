"""Acceptance suite: every criterion at its pinned tolerance, runnable via
`calibr verify-all` and mirrored one-to-one by tests/test_acceptance.py.

Each criterion function takes the seed and returns an AcceptanceResult;
`run_criterion` times it.  Nothing here loosens a tolerance at run time.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from .calibrations import catalogue, complex_structure
from .cones import mass_norm_estimate
from .currents import disc_mesh, graph_curve_mesh, green_check, \
    restriction_subharmonicity, tilted_disc_mesh, calibration_gap
from .duality import (assemble_boundary_model, boundary_alternative,
                      build_boundary_model, build_jensen_model,
                      jensen_alternative)
from .exterior import (ExteriorElement, SimplePlane, angular_distance,
                       derivation_tensor, pairing, simple_from_frame)
from .fields import builtin_field, quadratic_field
from .grassmann import (comass, random_plane_set, rng_stream,
                        reduce_calibration, sample_grassmannian)
from .hessian import normality_check, symbol, trace_check

DEFAULT_SEED = 1729

COMASS_ENTRIES = [
    ("kaehler", (2, 1)),
    ("kaehler", (3, 2)),
    ("special_lagrangian", (3,)),
    ("associative", ()),
    ("coassociative", ()),
    ("cayley", ()),
    ("quaternionic", (2,)),
    ("lambda_example", (0.5,)),
]

NORMAL_ENTRIES = [
    ("kaehler", (2, 1)),
    ("kaehler", (3, 2)),
    ("special_lagrangian", (3,)),
    ("associative", ()),
    ("coassociative", ()),
    ("cayley", ()),
    ("quaternionic", (2,)),
]


@dataclass
class AcceptanceResult:
    name: str
    passed: bool
    summary: str
    seconds: float = 0.0    # set by run_criterion
    details: dict = field(default_factory=dict)


def _samples(name, params, count=40, seed=DEFAULT_SEED, tol=1e-6):
    return sample_grassmannian(catalogue(name, *params), tol=tol, count=count,
                               seed=seed)


def _name_key(name):
    """Stream key for a catalogue name, the same in every process (unlike
    hash(), which Python salts per process)."""
    return zlib.crc32(name.encode())


# -- 1 ----------------------------------------------------------------------

def criterion_1_catalogue_comass(seed):
    t0 = time.perf_counter()
    rows = []
    ok = True
    for name, params in COMASS_ENTRIES:
        cal = catalogue(name, *params)
        res = comass(cal.form, seed=seed)
        good = 1.0 - 1e-4 <= res.value <= 1.0 + 1e-6
        ok = ok and good
        rows.append({"name": cal.name, "value": res.value,
                     "saturated": res.saturated, "ok": good})
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    worst = max(abs(r["value"] - 1.0) for r in rows)
    return AcceptanceResult(
        "1 catalogue comass", ok,
        f"8 entries, worst |comass-1| = {worst:.2e}, {elapsed:.1f}s < 120s",
        details={"rows": rows})


# -- 2 ----------------------------------------------------------------------

def criterion_2_lambda_collapse(seed):
    cal = catalogue("lambda_example", 0.5)
    ss = sample_grassmannian(cal, tol=1e-6, count=50, seed=seed)
    target = SimplePlane(np.eye(4)[:2])
    thetas = [angular_distance(pl, target)[0] for pl in ss.planes]
    oriented = [angular_distance(pl, target)[1] for pl in ss.planes]
    count, worst = len(ss), max(thetas)
    ok = count == 1 and worst <= 1e-3 and all(oriented)
    return AcceptanceResult(
        "2 lambda Grassmannian collapse", ok,
        f"50 requested -> {count} plane(s), angle to x1x2-plane {worst:.1e}",
        details={"count": count, "worst_angle": worst})


# -- 3 ----------------------------------------------------------------------

def criterion_3_kaehler_J_invariance(seed):
    ss = _samples("kaehler", (2, 1), count=100, seed=seed)
    J = complex_structure(2)
    worst = 0.0
    for pl in ss.planes:
        JF = pl.frame @ J.T
        sing = np.linalg.svd(pl.frame @ JF.T, compute_uv=False)
        theta = float(np.arccos(np.clip(sing.min(), -1.0, 1.0)))
        worst = max(worst, theta)
    count = len(ss)
    ok = count == 100 and worst <= 1e-3
    return AcceptanceResult(
        "3 Kaehler Grassmannian structure", ok,
        f"{count} planes, worst J-invariance angle {worst:.1e} <= 1e-3",
        details={"count": count, "worst": worst})


# -- 4 ----------------------------------------------------------------------

def criterion_4_trace_identity(seed, pairs_per_entry=10_000):
    worst_all = 0.0
    rows = []
    for name, params in COMASS_ENTRIES:
        cal = catalogue(name, *params)
        ss = _samples(name, params, count=40, seed=seed)
        n = cal.n
        Dphi = derivation_tensor(n, cal.p) @ cal.form.to_coeff_vector()
        per_plane = int(np.ceil(pairs_per_entry / len(ss)))
        rng = rng_stream(seed, _name_key(name) % 1000)
        worst = 0.0
        checked = 0
        for pl in ss.planes:
            xi_vec = pl.pvector().to_coeff_vector()
            G = Dphi @ xi_vec
            A = rng.standard_normal((per_plane, n, n))
            A = (A + np.transpose(A, (0, 2, 1))) / 2.0
            lhs = np.einsum("kij,ij->k", A, G)
            F = pl.frame
            rhs = np.einsum("ri,kij,rj->k", F, A, F)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
            checked += per_plane
            if checked >= pairs_per_entry:
                break
        # spot-check the operator route on a few pairs
        for t in range(5):
            A = rng.standard_normal((n, n))
            f = quadratic_field(A + A.T)
            _, _, gap = trace_check(f, np.zeros(n), ss.planes[t % len(ss)],
                                    cal)
            worst = max(worst, gap)
        rows.append({"name": cal.name, "worst_gap": worst,
                     "pairs": checked})
        worst_all = max(worst_all, worst)
    ok = worst_all < 1e-9
    checked = sum(r["pairs"] for r in rows)
    return AcceptanceResult(
        "4 trace identity", ok,
        f"{checked} pairs over {len(rows)} entries, worst gap "
        f"{worst_all:.2e} < 1e-9", details={"rows": rows})


# -- 5 ----------------------------------------------------------------------

def criterion_5_symbol_projection(seed):
    entries = [("kaehler", (2, 1)), ("special_lagrangian", (3,)),
               ("cayley", ()), ("lambda_example", (0.5,))]
    per = 10_000 // len(entries)
    worst = 0.0
    count = 0
    for name, params in entries:
        cal = catalogue(name, *params)
        ss = _samples(name, params, count=30, seed=seed)
        rng = rng_stream(seed, 40 + _name_key(name) % 97)
        for k in range(per):
            e = rng.standard_normal(cal.n)
            e /= np.linalg.norm(e)
            pl = ss.planes[k % len(ss)]
            lhs = pairing(symbol(e, cal), pl.pvector())
            rhs = float(np.linalg.norm(pl.frame @ e) ** 2)
            worst = max(worst, abs(lhs - rhs))
            count += 1
    ok = worst < 1e-9
    return AcceptanceResult(
        "5 symbol/projection identity", ok,
        f"{count} (e, xi) pairs, worst gap {worst:.2e} < 1e-9",
        details={"pairs": count, "worst": worst})


# -- 6 ----------------------------------------------------------------------

def criterion_6_wirtinger(seed):
    omega = catalogue("kaehler", 2, 1)
    T = disc_mesh(12, cal=omega).to_current()
    vol = T._volumes
    per_simplex_worst = float(np.abs(
        vol - vol * (T._tangents @ omega.form.to_coeff_vector())).max())
    tilt_rows = []
    tilt_ok = True
    for theta in (0.1, 0.5, 1.0):
        T = tilted_disc_mesh(12, theta).to_current()
        g = calibration_gap(T, omega)
        expect = (1.0 - np.cos(theta)) * g["mass"]
        err = abs(g["gap"] - expect)
        tilt_ok = tilt_ok and err < 1e-9
        tilt_rows.append({"theta": theta, "gap": g["gap"], "err": err})
    ok = per_simplex_worst < 1e-12 and tilt_ok
    return AcceptanceResult(
        "6 Wirtinger-type equality", ok,
        f"complex disc per-simplex gap {per_simplex_worst:.1e} < 1e-12; "
        f"tilted-disc identity within 1e-9 for theta in (0.1, 0.5, 1.0)",
        details={"per_simplex": per_simplex_worst, "tilted": tilt_rows})


# -- 7 ----------------------------------------------------------------------

def criterion_7_poisson_jensen(seed):
    omega = catalogue("kaehler", 2, 1)
    tests = [builtin_field(nm, 4)
             for nm in ("re_z1", "abs_z1_sq", "re_z1_sq", "normsq")]
    res20 = green_check(disc_mesh(20, cal=omega), 0, tests, omega)
    res40 = green_check(disc_mesh(40, cal=omega), 0, tests, omega)
    ok = True
    rows = []
    for f in tests:
        r20, r40 = res20.residuals[f.name], res40.residuals[f.name]
        good = r20 < 5e-3 and r40 <= r20 + 1e-12
        ok = ok and good
        rows.append({"field": f.name, "h=0.05": r20, "h=0.025": r40,
                     "ok": good})
    worst = max(r["h=0.05"] for r in rows)
    return AcceptanceResult(
        "7 Poisson-Jensen weak identity", ok,
        f"worst residual at h=0.05 is {worst:.1e} < 5e-3; refinement "
        "non-increasing", details={"rows": rows})


# -- 8 ----------------------------------------------------------------------

def criterion_8_farkas(seed):
    omega = catalogue("kaehler", 2, 1)
    ss = _samples("kaehler", (2, 1), count=8, seed=seed, tol=1e-8)
    ties = 0
    consistent = 0
    fails = []
    for inst in range(100):
        rng = rng_stream(seed, 8000 + inst)
        sites = rng.uniform(-1, 1, size=(4, 4))
        model = build_boundary_model(omega, sites, ss, degree=1,
                                     planes_per_site=3)
        A, _ = assemble_boundary_model(model,
                                       np.zeros(len(model.test_family)))
        c = np.abs(rng.standard_normal(A.shape[1]))
        S = A @ c
        if inst % 2 == 1:
            S = S * rng.choice([-1.0, 1.0], size=len(S))
        res = boundary_alternative(model, S)
        if res.boundary_tie:
            ties += 1
        elif res.consistent:
            consistent += 1
        else:
            fails.append(("boundary", inst))
    jt = 0
    for inst in range(100):
        rng = rng_stream(seed, 9000 + inst)
        pts = rng.uniform(-1, 1, size=(5, 4))
        model = build_jensen_model(omega, pts, ss, degree=2,
                                   planes_per_site=4)
        res = jensen_alternative(model, [0, 1, 2, 3], 4)
        if res.boundary_tie:
            jt += 1
        elif res.consistent:
            consistent += 1
        else:
            fails.append(("jensen", inst))
    mono_ok = 0
    for inst in range(20):
        rng = rng_stream(seed, 10_000 + inst)
        sites = rng.uniform(-1, 1, size=(3, 4))
        model = build_boundary_model(omega, sites, ss, degree=1,
                                     planes_per_site=3)
        A, _ = assemble_boundary_model(model,
                                       np.zeros(len(model.test_family)))
        S = A @ np.abs(rng.standard_normal(A.shape[1]))
        base = boundary_alternative(model, S, lam=1e9)
        lam_star = base.meta["lambda_threshold"]
        feas = [boundary_alternative(model, S, lam=l).primal == 'Feasible'
                for l in (0.5 * lam_star, 0.99 * lam_star,
                          1.01 * lam_star, 2.0 * lam_star)]
        if (not feas[0] and not feas[1] and feas[2] and feas[3]
                and all(feas[i] <= feas[i + 1] for i in range(3))):
            mono_ok += 1
        else:
            fails.append(("monotone", inst))
    total = 200 - ties - jt
    ok = consistent == total and mono_ok == 20 and not fails
    return AcceptanceResult(
        "8 finite Farkas alternative", ok,
        f"{consistent}/{total} consistent (ties excluded: {ties + jt}); "
        f"lambda monotonicity {mono_ok}/20",
        details={"fails": fails, "ties": ties + jt})


# -- 9 ----------------------------------------------------------------------

def criterion_9_reduction(seed):
    lam = catalogue("lambda_example", 0.5)
    ss = _samples("lambda_example", (0.5,), count=10, seed=seed)
    red = reduce_calibration(lam, ss)
    W_ok = red.W.shape[0] == 2 and \
        np.abs(red.W[:, 2:]).max() < 1e-8
    psi_vec = red.psi.to_coeff_vector()
    psi_ok = psi_vec.size == 1 and abs(abs(psi_vec[0]) - 1.0) < 1e-8
    lam_ok = W_ok and psi_ok and not red.elliptic and \
        red.witness is not None and np.abs(red.witness[:2]).max() < 1e-8
    elliptic_rows = []
    all_elliptic = True
    for name, params in [("kaehler", (2, 1)), ("special_lagrangian", (3,)),
                         ("associative", ()), ("cayley", ())]:
        cal = catalogue(name, *params)
        ssn = _samples(name, params, count=40, seed=seed)
        res = reduce_calibration(cal, ssn)
        elliptic_rows.append({"name": cal.name, "elliptic": res.elliptic,
                              "dim_W": res.W.shape[0]})
        all_elliptic = all_elliptic and res.elliptic
    ok = lam_ok and all_elliptic
    return AcceptanceResult(
        "9 ellipticity/reduction", ok,
        "lambda-example reduces to the x1x2-plane (non-elliptic); "
        "kaehler/slag/associative/cayley all elliptic",
        details={"lambda_ok": lam_ok, "rows": elliptic_rows})


# -- 10 ---------------------------------------------------------------------

def criterion_10_normality(seed):
    rows = []
    ok = True
    for name, params in NORMAL_ENTRIES:
        cal = catalogue(name, *params)
        rep = normality_check(cal, trials=50, seed=seed)
        rows.append({"name": cal.name, "normal": rep.normal,
                     "degenerate": rep.degenerate,
                     "worst_mismatch": rep.worst_mismatch})
        ok = ok and rep.normal
    worst = max(r["worst_mismatch"] for r in rows)
    return AcceptanceResult(
        "10 normality", ok,
        f"{len(rows)} entries x 50 hyperplanes, worst subspace "
        f"mismatch {worst:.1e} < 1e-8", details={"rows": rows})


# -- 11 ---------------------------------------------------------------------

def criterion_11_restriction_subharmonic(seed):
    omega = catalogue("kaehler", 2, 1)
    ss = _samples("kaehler", (2, 1), count=30, seed=seed)
    M = graph_curve_mesh(16, cal=omega)
    rows = []
    ok = True
    for fname in ("normsq", "abs_z1_sq"):
        f = builtin_field(fname, 4)
        rep = restriction_subharmonicity(M, f, omega, samples=ss)
        rows.append({"field": fname, "min_laplacian":
                     rep.details["min_laplacian"], "ok": rep.ok,
                     "precondition": rep.precondition_ok})
        ok = ok and rep.ok and rep.precondition_ok
    worst = min(r["min_laplacian"] for r in rows)
    return AcceptanceResult(
        "11 restriction subharmonicity", ok,
        f"holomorphic-graph mesh, min discrete Laplacian {worst:.2e} "
        ">= -1e-6", details={"rows": rows})


# -- 12 ---------------------------------------------------------------------

def criterion_12_mass_bracket(seed):
    gens = random_plane_set(4, 2, count=40, seed=seed)
    e12 = ExteriorElement(4, 2, {(1, 2): 1.0})
    e34 = ExteriorElement(4, 2, {(3, 4): 1.0})
    up, lo, _ = mass_norm_estimate(e12 + e34, gens, seed=seed)
    pair_ok = (lo >= 2.0 - 2e-6) and (up <= 2.0 + 2e-6) and up >= lo
    simple_worst = 0.0
    rng = rng_stream(seed, 77)
    units = [e12]
    for _ in range(3):
        _, xi = simple_from_frame(rng.standard_normal((2, 4)))
        units.append(xi)
    for k, xi in enumerate(units):
        u, l, _ = mass_norm_estimate(xi, gens, seed=seed + k)
        simple_worst = max(simple_worst, abs(u - 1.0), abs(1.0 - l))
    ok = pair_ok and simple_worst <= 1e-8
    return AcceptanceResult(
        "12 mass-norm bracket", ok,
        f"e12+e34 in [{lo:.9f}, {up:.9f}]; simple units within "
        f"{simple_worst:.1e} of 1",
        details={"pair": (lo, up), "simple_worst": simple_worst})


CRITERIA = [
    criterion_1_catalogue_comass,
    criterion_2_lambda_collapse,
    criterion_3_kaehler_J_invariance,
    criterion_4_trace_identity,
    criterion_5_symbol_projection,
    criterion_6_wirtinger,
    criterion_7_poisson_jensen,
    criterion_8_farkas,
    criterion_9_reduction,
    criterion_10_normality,
    criterion_11_restriction_subharmonic,
    criterion_12_mass_bracket,
]


def run_criterion(fn, seed=DEFAULT_SEED) -> AcceptanceResult:
    """Run one criterion at seed; its result carries the wall time."""
    t0 = time.perf_counter()
    res = fn(seed)
    res.seconds = time.perf_counter() - t0
    return res


def run_all(seed):
    return [run_criterion(fn, seed) for fn in CRITERIA]
