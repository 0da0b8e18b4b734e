"""The four workloads: inputs made from a seed, a fixed job list, and an
independent check for every job.

A workload's set-up builds everything a job needs (catalogue entries, plane
samples, meshes, duality models, input coefficient vectors).  A job is one
call into the public library API; its check runs outside the timed region.
Library functions are looked up on their modules at call time, so the
traced run sees the wrapped versions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from calibr import (acceptance, calibrations, cones, currents, duality,
                    exterior, fields, grassmann, hessian, polynomial)
from oracles import (coeff_vector, form_on_plane,
                     integrate_polyform, kaehler_cone_margin, lex_basis,
                     lp_feasible, mass_of_2vector, min_mass,
                     min_over_complex_lines, plucker, require,
                     triangle_area)

# Sizes are fixed here, never per run: a later change must be measured on
# the same job lists.  They are chosen so that a job list takes seconds,
# not minutes, on a 2-core machine.
INSTANCES = 2               # certify: seeds per comass and sample entry
SAMPLE_COUNT = 8            # sample_grassmannian planes per catalogue entry
NORMALITY_TRIALS = 1        # random hyperplanes per normality_check
MASS_ROUNDS = 10            # mass_norm_estimate max_rounds
MASS_STARTS = 4             # mass_norm_estimate comass_multistarts
DISC_SIZES = (8, 12)        # disc_mesh rings: 384 and 864 triangles
# positivity: random R^4 2-vectors, simple unit 2-vectors, R^6 3-vectors,
# 2-forms to classify, members and non-members.  The randomized kinds vary
# most with the seed, so they fill the middle of the job list, where the
# median is taken; positivity_classify, with more starts, stays the
# slowest job.
N_R4, N_SIMPLE, N_R6, N_ALPHA, N_MEMBER, N_OUTSIDER = 7, 2, 3, 2, 1, 2
POSITIVITY_STARTS = 20      # positivity_classify starts_limit
N_PLAIN, N_BOUNDED, N_JENSEN = 50, 15, 40
LAMBDA_FACTORS = (0.7, 1.5)  # lambda / lambda*: infeasible, feasible


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple]   # raises CheckFailed; returns a summary


def _seeds(rng, k):
    return [int(s) for s in rng.integers(0, 2**31, size=k)]


def _element(vec, n, p):
    return exterior.ExteriorElement(
        n, p, {tuple(i + 1 for i in idx): float(v)
               for idx, v in zip(lex_basis(n, p), vec)})


def _unit_simple(rng, n=4):
    q, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    u, v = q[:, 0], q[:, 1]
    return np.array([u[i] * v[j] - u[j] * v[i] for i, j in lex_basis(n, 2)])


def _complex_line(v):
    """Lex vector of v ^ Jv for a unit v in C^2 (interleaved coordinates)."""
    v = v / np.linalg.norm(v)
    Jv = np.array([-v[1], v[0], -v[3], v[2]])
    return np.array([v[i] * Jv[j] - v[j] * Jv[i] for i, j in lex_basis(4, 2)])


# ---------------------------------------------------------------------------
# certify: comass, Grassmannian sampling and normality of the catalogue
# ---------------------------------------------------------------------------

def _check_comass(cal, res):
    require(1.0 - 1e-4 <= res.value <= 1.0 + 1e-6,
            f"comass {cal.name} = {res.value!r} outside [1-1e-4, 1+1e-6]")
    attained = form_on_plane(cal.form.coeffs, res.plane.frame)
    require(abs(attained - res.value) <= 1e-9,
            f"comass {cal.name}: plane gives {attained!r}, reported "
            f"{res.value!r}")
    return (res.value, res.saturated, res.converged)


def _check_sample(cal, ss):
    require(len(ss) >= 1, f"sample {cal.name}: no plane kept")
    vals = [form_on_plane(cal.form.coeffs, pl.frame) for pl in ss.planes]
    lo = cal.claimed_comass - ss.tolerance - 1e-12
    require(min(vals) >= lo and max(vals) <= 1.0 + 1e-6,
            f"sample {cal.name}: phi on kept planes spans "
            f"[{min(vals)!r}, {max(vals)!r}]")
    return (len(ss), ss.multistart_count, sum(vals))


def _check_normal(cal, rep):
    require(rep.normal and rep.worst_mismatch < 1e-8,
            f"normality {cal.name}: normal={rep.normal}, worst mismatch "
            f"{rep.worst_mismatch!r}")
    return (rep.normal, rep.degenerate, rep.worst_mismatch)


def certify(seed):
    rng = np.random.default_rng([seed, 1])
    entries = [calibrations.catalogue(name, *params)
               for name, params in acceptance.COMASS_ENTRIES]
    normal = [calibrations.catalogue(name, *params)
              for name, params in acceptance.NORMAL_ENTRIES]
    jobs = []
    for cal in entries:
        for s in _seeds(rng, INSTANCES):
            jobs.append(Job(f"comass {cal.name}",
                            lambda cal=cal, s=s: grassmann.comass(cal.form,
                                                                  seed=s),
                            lambda res, cal=cal: _check_comass(cal, res)))
    for cal in entries:
        for s in _seeds(rng, INSTANCES):
            jobs.append(Job(f"sample {cal.name}",
                            lambda cal=cal, s=s: grassmann.sample_grassmannian(
                                cal, count=SAMPLE_COUNT, seed=s),
                            lambda res, cal=cal: _check_sample(cal, res)))
    for cal, s in zip(normal, _seeds(rng, len(normal))):
        jobs.append(Job(f"normality {cal.name}",
                        lambda cal=cal, s=s: hessian.normality_check(
                            cal, trials=NORMALITY_TRIALS, seed=s),
                        lambda res, cal=cal: _check_normal(cal, res)))
    return jobs


# ---------------------------------------------------------------------------
# positivity: mass-norm brackets, polar-cone classification, cone membership
# ---------------------------------------------------------------------------

def _check_bracket_2vector(vec, n, out):
    upper, lower, meta = out
    exact = mass_of_2vector(vec, n)
    slack = 1e-9 * max(1.0, exact)
    require(lower - slack <= exact <= upper + slack,
            f"mass bracket [{lower!r}, {upper!r}] misses the closed form "
            f"{exact!r}")
    return (upper, lower, meta["rounds"])


def _check_bracket_general(vec, out):
    upper, lower, meta = out
    l2, l1 = float(np.linalg.norm(vec)), float(np.abs(vec).sum())
    slack = 1e-9 * l1
    require(l2 - slack <= lower <= upper <= l1 + slack,
            f"mass bracket [{lower!r}, {upper!r}] not inside "
            f"[|xi|_2, |xi|_1] = [{l2!r}, {l1!r}]")
    return (upper, lower, meta["rounds"])


def _check_positivity(alpha_vec, rep, tol=1e-6):
    exact = min_over_complex_lines(alpha_vec)
    require(abs(rep.margin - exact) <= 1e-7,
            f"positivity margin {rep.margin!r}, exact minimum {exact!r}")
    want = "Interior" if exact > tol else "Outside" if exact < -tol \
        else "Boundary"
    require(rep.status == want, f"positivity status {rep.status}, want {want}")
    return (rep.status, rep.margin)


def _check_membership(omega, vec, rep):
    margin = kaehler_cone_margin(vec)
    scale = np.linalg.norm(vec)
    if margin < -1e-6 * scale:
        require(rep.status == "Outside",
                f"membership status {rep.status} for a non-member")
    elif margin > 1e-6 * scale:
        require(rep.status != "Outside", "membership: member called Outside")
    cert = rep.certificate
    if cert is not None:
        w = np.asarray(cert["weights"])
        cols = []
        for pl in cert["planes"]:
            require(form_on_plane(omega.form.coeffs, pl.frame) >= 1.0 - 1e-6,
                    "membership certificate uses a plane off G(omega)")
            cols.append(plucker(pl.frame))
        require(w.min() >= 0.0, "membership certificate has negative weights")
        recon = np.column_stack(cols) @ w
        require(np.abs(recon - vec).max() <= 1e-6 * scale,
                "membership certificate does not reconstruct xi")
    return (rep.status, rep.margin, None if cert is None else len(cert["weights"]))


def positivity(seed):
    rng = np.random.default_rng([seed, 2])
    omega = calibrations.catalogue("kaehler", 2, 1)
    gens4 = grassmann.random_plane_set(4, 2, count=40, seed=seed)
    gens6 = grassmann.random_plane_set(6, 3, count=40, seed=seed)
    samples = grassmann.sample_grassmannian(omega, count=40, seed=seed)

    two_vectors = (
        [("random R4 2-vector", rng.standard_normal(6)) for _ in range(N_R4)]
        + [("simple unit 2-vector", _unit_simple(rng))
           for _ in range(N_SIMPLE)]
        + [("e12+e34", coeff_vector({(1, 2): 1.0, (3, 4): 1.0}, 4, 2))])
    three_vectors = [rng.standard_normal(20) for _ in range(N_R6)]
    alphas = [rng.standard_normal(6) for _ in range(N_ALPHA)]

    def member():
        lines = [_complex_line(rng.standard_normal(4)) for _ in range(3)]
        return sum(w * ln for w, ln in zip(rng.uniform(0.5, 1.5, 3), lines))

    members = [member() for _ in range(N_MEMBER)]
    # a member has v.Pv <= sum of weights < 5 for unit v, so subtracting
    # 5 (v ^ Jv) leaves P = XJ a negative direction
    outsiders = [member() - 5.0 * _complex_line(rng.standard_normal(4))
                 for _ in range(N_OUTSIDER)]

    def mass_job(vec, n, p, s):
        return lambda: cones.mass_norm_estimate(
            _element(vec, n, p), gens4 if n == 4 else gens6,
            max_rounds=MASS_ROUNDS, comass_multistarts=MASS_STARTS, seed=s)

    jobs = [Job(f"mass {label}", mass_job(vec, 4, 2, s),
                lambda out, vec=vec: _check_bracket_2vector(vec, 4, out))
            for (label, vec), s in zip(two_vectors,
                                       _seeds(rng, len(two_vectors)))]
    jobs += [Job("mass random R6 3-vector", mass_job(vec, 6, 3, s),
                 lambda out, vec=vec: _check_bracket_general(vec, out))
             for vec, s in zip(three_vectors, _seeds(rng, N_R6))]
    jobs += [Job("positivity random 2-form",
                 lambda alpha=alpha: cones.positivity_classify(
                     _element(alpha, 4, 2), omega, samples,
                     starts_limit=POSITIVITY_STARTS),
                 lambda rep, alpha=alpha: _check_positivity(alpha, rep))
             for alpha in alphas]
    for label, vecs in (("member", members), ("non-member", outsiders)):
        jobs += [Job(f"membership {label}",
                     lambda vec=vec, s=s: cones.cone_membership(
                         _element(vec, 4, 2), omega, samples, seed=s),
                     lambda rep, vec=vec: _check_membership(omega, vec, rep))
                 for vec, s in zip(vecs, _seeds(rng, len(vecs)))]
    return jobs


# ---------------------------------------------------------------------------
# discs: Green residuals, calibration gaps and exact evaluation on meshes
# ---------------------------------------------------------------------------

def _check_green(res):
    worst = max(res.residuals.values())
    require(np.isfinite(worst) and worst < 5e-3,
            f"Green residual {worst!r} >= 5e-3")
    return tuple(res.residuals[k] for k in sorted(res.residuals))


def _check_gap(T, theta, g):
    mass = sum(abs(m) * triangle_area(v) for v, m in T.simplices)
    require(abs(g["mass"] - mass) <= 1e-9 * mass,
            f"current mass {g['mass']!r}, independent {mass!r}")
    want = (1.0 - np.cos(theta)) * mass
    require(abs(g["gap"] - want) <= 1e-9,
            f"tilted-disc gap {g['gap']!r}, (1 - cos theta) mass = {want!r}")
    return (g["gap"], g["mass"])


def _check_evaluate(T, comps, value):
    ref = integrate_polyform(T.simplices, comps, T.n)
    require(abs(value - ref) <= 1e-9 * max(1.0, abs(ref)),
            f"evaluate gave {value!r}, midpoint rule {ref!r}")
    return (value,)


def _random_polyform(rng, n=4):
    """Degree <= 2 coefficients, four random monomials per component."""
    exps = polynomial.monomial_exponents(n, 2)
    comps = {}
    for idx in lex_basis(n, 2):
        picks = rng.choice(len(exps), size=4, replace=False)
        comps[tuple(i + 1 for i in idx)] = {exps[k]: float(rng.standard_normal())
                                            for k in picks}
    form = polynomial.PolyForm(n, 2, {idx: polynomial.Polynomial(n, terms)
                                      for idx, terms in comps.items()})
    return form, comps


def discs(seed):
    rng = np.random.default_rng([seed, 3])
    omega = calibrations.catalogue("kaehler", 2, 1)
    tests = [fields.builtin_field(name, 4) for name in fields.BUILTIN_SET1]
    meshes = [currents.disc_mesh(m, cal=omega) for m in DISC_SIZES]
    # vertices 1..6 are the first ring around the centre: an off-centre pole
    # takes the discrete-solve path instead of the exact log profile
    ring_vertex = 1 + int(rng.integers(6))
    thetas = rng.uniform(0.1, 1.4, size=len(DISC_SIZES))
    tilted = [currents.tilted_disc_mesh(m, th).to_current()
              for m, th in zip(DISC_SIZES, thetas)]
    forms = [_random_polyform(rng) for _ in DISC_SIZES]

    jobs = []
    for M in meshes:
        jobs.append(Job(f"green centre {len(M.simplices)} triangles",
                        lambda M=M: currents.green_check(M, 0, tests, omega),
                        _check_green))
    jobs.append(Job(f"green ring {len(meshes[0].simplices)} triangles",
                    lambda: currents.green_check(meshes[0], ring_vertex, tests,
                                                 omega),
                    _check_green))
    for T, th in zip(tilted, thetas):
        jobs.append(Job(f"calibration_gap {len(T)} triangles",
                        lambda T=T: currents.calibration_gap(T, omega),
                        lambda g, T=T, th=th: _check_gap(T, th, g)))
    for T, (form, comps) in zip(tilted, forms):
        jobs.append(Job(f"evaluate {len(T)} triangles",
                        lambda T=T, form=form: currents.evaluate(T, form),
                        lambda v, T=T, comps=comps: _check_evaluate(T, comps, v)))
    return jobs


# ---------------------------------------------------------------------------
# farkas: finite boundary and Jensen alternatives on kaehler(2,1)
# ---------------------------------------------------------------------------

def _check_boundary(res, A, s, expected, phi, lam=None):
    if res.boundary_tie:
        return ("tie",)
    require(res.consistent, "boundary alternative is inconsistent")
    feasible = res.primal == "Feasible"
    require(feasible == expected(),
            f"primal {res.primal}, expected feasible={expected()}")
    if feasible:
        w = res.weights
        require(w.min() >= -1e-9, "negative atom weight")
        require(np.abs(A @ w - s).max() <= 1e-7 * max(1.0, np.abs(s).max()),
                "weights do not reproduce S")
        if lam is not None:
            require(w.sum() <= lam * (1.0 + 1e-9), "weights exceed lambda")
        return ("Feasible", float(w.sum()))
    a = res.certificate
    floor = 0.0 if lam is None else -phi
    require((A.T @ a - floor).min() >= -1e-8,
            "certificate violates A^T a >= floor")
    bound = 0.0 if lam is None else -lam
    require(s @ a < bound, f"certificate s.a = {s @ a!r} not below {bound!r}")
    return ("Certificate", float(s @ a))


def _check_jensen(res, A, b, n_sites, expected):
    if res.boundary_tie:
        return ("tie",)
    require(res.consistent, "Jensen alternative is inconsistent")
    feasible = res.primal == "Feasible"
    require(feasible == expected(),
            f"primal {res.primal}, HiGHS says feasible={expected()}")
    if feasible:
        w = res.weights
        require(w.min() >= -1e-9, "negative weight")
        require(np.abs(A @ w - b).max() <= 1e-7 * max(1.0, np.abs(b).max()),
                "weights do not solve the Jensen system")
        return ("Feasible", float(w.sum()))
    a = res.certificate
    K, n_atoms = A.shape[0] - 1, A.shape[1] - n_sites
    hess = A[:K, :n_atoms].T            # second-order operator on each atom
    f_sites = -A[:K, n_atoms:].T        # family values at the K sites
    f_x = -b[:K]
    require((hess @ a).min() >= -1e-8, "certificate is not psh on the atoms")
    sep = f_x @ a - (f_sites @ a).max()
    require(sep > 0.0, f"certificate does not separate x from K ({sep!r})")
    return ("Certificate", float(sep))


def farkas(seed):
    omega = calibrations.catalogue("kaehler", 2, 1)
    ss = grassmann.sample_grassmannian(omega, tol=1e-8, count=8, seed=seed)

    def stream(key):
        return np.random.default_rng(np.random.SeedSequence([seed, key]))

    def boundary_instance(sites):
        model = duality.build_boundary_model(omega, sites, ss, degree=1,
                                             planes_per_site=3)
        A, _ = duality.assemble_boundary_model(
            model, np.zeros(len(model.test_family)))
        phi = np.array([form_on_plane(omega.form.coeffs, pl.frame)
                        for _, pl in model.atoms])
        return model, A, phi

    jobs = []
    # criterion-8 generators: rng streams keyed 8000+, 10000+ and 9000+
    for inst in range(N_PLAIN):
        rng = stream(8000 + inst)
        model, A, phi = boundary_instance(rng.uniform(-1, 1, size=(4, 4)))
        S = A @ np.abs(rng.standard_normal(A.shape[1]))
        if inst % 2 == 1:
            S = S * rng.choice([-1.0, 1.0], size=len(S))
        # HiGHS decides the expected side at the first check, not in set-up:
        # it is the benchmark's reference, not work the program does
        expected = functools.cache(lambda A=A, S=S: lp_feasible(A, S))
        jobs.append(Job(f"boundary plain {inst}",
                        lambda model=model, S=S: duality.boundary_alternative(
                            model, S),
                        lambda r, A=A, S=S, e=expected, phi=phi:
                            _check_boundary(r, A, S, e, phi)))
    for inst in range(N_BOUNDED):
        rng = stream(10_000 + inst)
        model, A, phi = boundary_instance(rng.uniform(-1, 1, size=(3, 4)))
        S = A @ np.abs(rng.standard_normal(A.shape[1]))
        lam_star = min_mass(A, S)           # input: lambda is set around it
        for f in LAMBDA_FACTORS:
            lam = f * lam_star
            jobs.append(Job(f"boundary lambda {inst} x{f}",
                            lambda model=model, S=S, lam=lam:
                                duality.boundary_alternative(model, S, lam=lam),
                            lambda r, A=A, S=S, e=f > 1.0, phi=phi, lam=lam:
                                _check_boundary(r, A, S, lambda: e, phi, lam)))
    for inst in range(N_JENSEN):
        rng = stream(9000 + inst)
        model = duality.build_jensen_model(
            omega, rng.uniform(-1, 1, size=(5, 4)), ss, degree=2,
            planes_per_site=4)
        A, b = duality.assemble_jensen_model(model, [0, 1, 2, 3], 4)
        expected = functools.cache(lambda A=A, b=b: lp_feasible(A, b))
        jobs.append(Job(f"jensen {inst}",
                        lambda model=model: duality.jensen_alternative(
                            model, [0, 1, 2, 3], 4),
                        lambda r, A=A, b=b, e=expected:
                            _check_jensen(r, A, b, 4, e)))
    return jobs


WORKLOADS = {"certify": certify, "positivity": positivity, "discs": discs,
             "farkas": farkas}
