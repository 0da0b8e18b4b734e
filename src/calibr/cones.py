"""Convex geometry of the positivity cones attached to a calibration.

Cone queries on a Kaehler form are exact (one eigendecomposition on its top
singular block, `grassmann.kaehler_structure`), which covers every
calibration in degree 2 and codegree 2, and so is the mass norm wherever
the comass is.  Other cone queries run against a finite sample of
G(phi), grown for cone membership by column generation (each round prices
the NNLS residual with one constrained extremum over G(phi): sampled starts
polished onto G(phi) and refined tangentially), which approximates the
exact cones from below; every report carries the sample count, the
tolerances and ``meta["exact"]``.
Linear programs, Lemma 2.5's hull test among them, go through the in-repo
bounded-variable simplex (`calibr.lp`); the sampled membership's
nonnegative least-squares subproblems use scipy's NNLS, which is imported
on the first call so that the exact routes never load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibrations import Calibration
from .exterior import ExteriorElement, SimplePlane, pairing
from .grassmann import (PlaneSampleSet, _degree_two_skew, comass,
                        constrained_extremum, kaehler_matrix, kaehler_planes,
                        kaehler_structure, polish_plane, span_split)
from .lp import solve_lp

BOUNDARY_TOL = 1e-6
MEMBERSHIP_TOL = 1e-6    # relative residual of a member's decomposition
SEPARATION_STARTS = 8   # sampled starts of each pricing extremum
GAP_TOL = 1e-9      # mass loop: bracket width, or dual comass above one


def nnls(A, b):
    """scipy's NNLS: (x >= 0 minimizing |A x - b|, that residual norm)."""
    from scipy.optimize import nnls as scipy_nnls
    return scipy_nnls(A, b)


@dataclass
class ConeReport:
    status: str                      # Interior | Boundary | Outside
    margin: float
    certificate: dict | None = None
    tolerances: dict = field(default_factory=dict)
    witness: SimplePlane | None = None
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# membership in the positivity cone of p-vectors
# ---------------------------------------------------------------------------

def _member_margin(atom_matrix, coeffs):
    """Largest minimum atom weight over nonnegative decompositions of
    atom_matrix @ coeffs: one LP in span coordinates, max t subject to
    C (d + t 1) = C coeffs, d, t >= 0.  Feasible at d = coeffs, bounded as
    phi is near one on every atom, and positive exactly on the relative
    interior of the atoms' cone (Rockafellar, Convex Analysis, Thm 6.9)."""
    basis, _ = span_split(atom_matrix.T)
    C = basis @ atom_matrix                         # (k, num_atoms)
    res = solve_lp(np.append(np.zeros(C.shape[1]), -1.0),
                   np.column_stack([C, C.sum(axis=1)]), C @ coeffs)
    if res.status != 'optimal':
        raise RuntimeError(f"membership LP failed with status {res.status}")
    return -res.obj


def cone_membership(xi: ExteriorElement, cal: Calibration,
                    samples: PlaneSampleSet, max_rounds=20,
                    seed=0) -> ConeReport:
    """Nonnegative decomposition of xi over phi-planes.

    On a Kaehler form the atoms are `_kaehler_atoms`, the report is exact
    and the sample may be empty; otherwise they are the sampled planes
    grown by column generation (`_sampled_membership`).  Outside when the
    relative residual exceeds MEMBERSHIP_TOL, with margin minus it,
    ``meta["separating_form"]`` -r/|r| for the residual r (it pairs
    negatively with xi, nonnegatively with every atom) and
    ``meta["separating_min"]`` its `constrained_extremum` minimum over
    G(phi): exact on the Kaehler route, the loop's last pricing otherwise,
    a separation certificate when it is nonnegative.  ``meta["capped"]`` is
    True when the loop stopped at ``max_rounds`` or on a stalled residual
    while that pricing was still negative.  A member's margin is the
    largest minimum atom weight relative to |xi|, Interior above
    BOUNDARY_TOL: exact for the cone of the atoms (meta["planes"]) only, so
    a sum of three sampled associative planes can read Boundary.
    """
    if xi.n != cal.n or xi.p != cal.p:
        raise ValueError("degree/dimension mismatch between xi and calibration")
    xi_vec = xi.to_coeff_vector()
    scale = max(np.linalg.norm(xi_vec), 1e-300)
    structure = kaehler_structure(cal.form)
    exact = structure is not None
    if not exact:
        if len(samples) == 0:
            raise ValueError("empty sample set")
        planes, A, coeffs, res, pricing, capped = _sampled_membership(
            xi, xi_vec, scale, cal, samples, max_rounds, seed)
    else:
        planes, coeffs = _kaehler_atoms(xi, cal, *structure)
        A = np.column_stack([pl.pvector().to_coeff_vector() for pl in planes])
        capped = False
    r = xi_vec - A @ coeffs
    residual = (np.linalg.norm(r) if exact else res) / scale
    tolerances = {"membership_tol": MEMBERSHIP_TOL,
                  "boundary_tol": BOUNDARY_TOL}
    meta = {"sample_count": len(samples), "atom_count": len(planes),
            "residual": residual, "planes": planes,
            "weights": coeffs, "exact": exact, "capped": capped}
    if residual > MEMBERSHIP_TOL:
        sep = ExteriorElement.from_coeff_vector(
            cal.n, cal.p, -r / np.linalg.norm(r), drop_tol=0.0)
        meta["separating_form"] = sep
        meta["separating_min"] = (constrained_extremum(sep, cal, samples,
                                                       "min")
                                  if exact else pricing)
        return ConeReport("Outside", -residual, None, tolerances, None, meta)
    certificate = None
    if residual <= 1e-8:
        active = [(float(c), pl) for c, pl in zip(coeffs, planes) if c > 1e-12]
        certificate = {"weights": [c for c, _ in active],
                       "planes": [pl for _, pl in active]}
    margin = (coeffs.min() / scale if exact
              else _member_margin(A, coeffs / scale))
    status = "Boundary" if abs(margin) <= BOUNDARY_TOL else "Interior"
    return ConeReport(status, margin, certificate, tolerances, None, meta)


def _kaehler_atoms(xi, cal, J, E):
    """The m/2 orthogonal eigen-lines u ^ Ju of the top block E (m = dim E)
    for S = `kaehler_matrix` sym(X J) in E's coordinates, as phi-planes,
    and their eigenvalues clipped at zero.  xi is a sum of complex lines of
    E iff it lies in the lines' span and X J is symmetric positive
    semidefinite on E (Harvey-Knapp 1974); S commutes with J_E = E J E^T,
    and the lines' span is orthogonal to the rest of xi, so the weighted
    lines are the nearest point of the cone to xi."""
    m = len(E)
    S = E @ kaehler_matrix(xi, J) @ E.T
    # on the +i eigenspace of J_E (projector Pi) S has the m/2 eigenvalues
    # of the lines, with z = (u - iJu)/sqrt 2; the rest is shifted below
    Pi = (np.eye(m) - 1j * (E @ J @ E.T)) / 2.0
    lam, Z = np.linalg.eigh(S @ Pi - (np.abs(S).sum() + 1.0) * Pi.conj())
    U = np.sqrt(2.0) * Z[:, m // 2:].real
    return ([SimplePlane(F.T) for F in kaehler_planes(U.T @ E, J,
                                                       cal.form)],
            np.maximum(lam[m // 2:], 0.0))


def _sampled_membership(xi, xi_vec, scale, cal, samples, max_rounds, seed):
    """Column generation over the sampled planes.  Each round solves NNLS
    over the atoms and prices the residual r = xi - A c with one ascent of
    -r/|r| over G(phi); the priced plane joins the atoms while it pairs
    positively with r.  Stops on a vanishing residual, a nonnegative
    pricing (which then separates xi from the cone), ``max_rounds`` added
    planes or three rounds that shrink the residual by under 0.5%.

    Returns the atoms, their p-vectors as the columns of a matrix, the NNLS
    weights, the residual norm, the last pricing (None when the residual
    vanished before any) and whether a cap or a stall ended the loop with
    that pricing still negative."""
    planes = list(samples.planes)
    cols = [samples.pvectors().T]
    # when the target is close to a single phi-plane, that plane (found by
    # aligning with xi and polishing onto the Grassmannian) is the one atom
    # that matters; add it up front
    cm_xi = comass((1.0 / scale) * xi, multistarts=8, seed=seed)
    polished, val = polish_plane(cal.form, cm_xi.plane)
    if val >= 1.0 - max(MEMBERSHIP_TOL, samples.tolerance):
        planes.append(polished)
        cols.append(polished.pvector().to_coeff_vector())
    A = np.column_stack(cols)
    coeffs, res = nnls(A, xi_vec)
    pricing, stagnant = None, 0
    for round_k in range(max_rounds + 1):
        if res <= 1e-10 * scale:
            break
        r = xi_vec - A @ coeffs
        pricing = constrained_extremum(
            ExteriorElement.from_coeff_vector(
                cal.n, cal.p, -r / np.linalg.norm(r), drop_tol=0.0),
            cal, samples, "min", seed=seed + round_k,
            starts_limit=SEPARATION_STARTS, extra_starts=2)
        col = pricing.plane.pvector().to_coeff_vector()
        if col @ r <= 1e-12 * scale * np.linalg.norm(r):
            break  # no phi-plane pairs positively with the residual
        if round_k == max_rounds or stagnant >= 3:
            return planes, A, coeffs, res, pricing, True
        planes.append(pricing.plane)
        A = np.column_stack([A, col])
        res_prev = res
        coeffs, res = nnls(A, xi_vec)
        stagnant = stagnant + 1 if res > 0.995 * res_prev else 0
    return planes, A, coeffs, res, pricing, False


# ---------------------------------------------------------------------------
# mass norm bracketing
# ---------------------------------------------------------------------------

def mass_norm_estimate(xi: ExteriorElement, generator_samples: PlaneSampleSet,
                       max_rounds=25, comass_multistarts=40, seed=0):
    """Bracket the mass norm of xi, the dual norm of the comass.

    Where the comass is a closed form (p = 1, 2, n-2, n-1, n) so is the
    mass, returned as both ends with ``meta["rounds"]`` 0: |xi| for p = 1,
    n-1, n, else half the nuclear norm of the skew matrix of xi (of *xi).
    Otherwise upper: min sum |c| over signed decompositions into sampled
    simple unit p-vectors (in-repo simplex), with cutting-plane
    augmentation driven by the LP dual.  Each round adds one column, so
    every LP after the first starts from the previous round's optimal
    basis, which stays feasible (column generation; Chvatal, Linear
    Programming, ch. 8); the first is solved cold.  Lower: best pairing
    against a dictionary of forms, each divided by its comass.

    ``meta["lower_certified"]`` is True when the form behind ``lower`` had an
    exact comass, so that ``lower`` is a certified lower bound; otherwise
    it divides by a best-found comass and may overshoot the mass.
    ``meta["capped"]`` is True when the loop stopped at ``max_rounds`` with
    the bracket still wider than GAP_TOL.  Raises
    RuntimeError when ``lower`` exceeds ``upper`` beyond rounding.
    """
    if generator_samples.frames.shape[1:] != (xi.n, xi.p):
        raise ValueError("degree/dimension mismatch between xi and "
                         "generator sample")
    if xi.norm() == 0.0:
        raise ValueError("mass norm of the zero element")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    n, p = xi.n, xi.p
    if p in (1, 2, n - 2, n - 1, n):
        mass = xi.norm()
        if p not in (1, n - 1, n):
            mass = 0.5 * float(np.linalg.svd(_degree_two_skew(xi),
                                             compute_uv=False).sum())
        return mass, mass, {"rounds": 0, "dual_comass": None,
                            "saturated": True, "atoms": 0,
                            "lower_certified": True, "capped": False}
    xi_vec = xi.to_coeff_vector()
    # a coordinate form has comass exactly one (Hadamard's inequality)
    lower, certified = float(np.abs(xi_vec).max()), True

    def offer(form, cm, divisor):
        nonlocal lower, certified
        val = pairing(form, xi) / divisor
        if val > lower:
            lower, certified = val, cm.exact

    # the plane best aligned with xi is the decisive atom when xi is simple;
    # the target form itself is rescaled by its own comass
    xi_unit = (1.0 / xi.norm()) * xi
    cm_xi = comass(xi_unit, multistarts=24, seed=seed)
    # the coordinate planes' p-vectors are the standard basis
    cols = [*np.eye(math.comb(n, p)), *generator_samples.pvectors(),
            cm_xi.plane.pvector().to_coeff_vector()]
    if cm_xi.value > 1e-12:
        offer(xi_unit, cm_xi, cm_xi.value)
    dual_comass = None
    saturated = True
    upper = np.inf
    capped = False
    basis = None
    for round_k in range(max_rounds):
        A = np.column_stack(cols)
        m = A.shape[1]
        res = solve_lp(np.ones(2 * m), np.hstack([A, -A]), xi_vec,
                       basis=basis)
        if res.status != 'optimal':
            raise RuntimeError(f"mass LP failed with status {res.status}")
        upper = res.obj
        if upper - lower <= GAP_TOL * max(1.0, upper):
            break
        dual_form = ExteriorElement.from_coeff_vector(n, p, res.y,
                                                      drop_tol=0.0)
        if dual_form.norm() == 0.0:
            break
        cm = comass(dual_form, multistarts=comass_multistarts,
                    seed=seed + round_k)
        dual_comass = cm.value
        saturated = cm.saturated
        if dual_comass > 1e-12:
            offer(dual_form, cm, max(dual_comass, 1.0))
        if dual_comass <= 1.0 + GAP_TOL:
            break
        cols.append(cm.plane.pvector().to_coeff_vector())
        # the next LP is [A, a, -A, -a]: the -A columns shift by one and
        # the artificials by two, so a basis naming one still starts cold
        basis = res.basis + (res.basis >= m) + (res.basis >= 2 * m)
    else:
        capped = True
    if lower > upper * (1.0 + 1e-12):
        raise RuntimeError(
            f"mass bracket inverted: lower {lower!r} > upper {upper!r}")
    return upper, lower, {"rounds": round_k + 1, "dual_comass": dual_comass,
                          "saturated": saturated, "atoms": len(cols),
                          "lower_certified": certified, "capped": capped}


# ---------------------------------------------------------------------------
# form-side positivity
# ---------------------------------------------------------------------------

def positivity_classify(alpha: ExteriorElement, cal: Calibration,
                        samples: PlaneSampleSet, tol=BOUNDARY_TOL,
                        **extremum_opts) -> ConeReport:
    """Classify alpha against the polar cone: margin is min alpha over the
    phi-Grassmannian (`constrained_extremum`), exact for a Kaehler form
    (``meta["exact"]``, and the sample may be empty) and best-found from the
    sampled planes otherwise.  Raises when tol is negative or NaN."""
    if not tol >= 0:
        raise ValueError(f"tol must be at least 0, got {tol}")
    if alpha.n != cal.n or alpha.p != cal.p:
        raise ValueError("degree/dimension mismatch between alpha and calibration")
    if alpha.norm() == 0.0:
        return ConeReport("Boundary", 0.0, None, {"tol": tol}, None,
                          {"sample_count": len(samples), "exact": True})
    res = constrained_extremum(alpha, cal, samples, "min", **extremum_opts)
    status = ("Interior" if res.value > tol else
              "Outside" if res.value < -tol else "Boundary")
    return ConeReport(status, res.value, None, {"tol": tol}, res.plane,
                      {"sample_count": len(samples),
                       "witness_phi": res.phi_value, "exact": res.exact})


# ---------------------------------------------------------------------------
# the three equivalent membership conditions for unit-mass p-vectors
# ---------------------------------------------------------------------------

@dataclass
class Lemma25Report:
    conditions: dict
    agree: bool
    mass_bracket: tuple
    meta: dict = field(default_factory=dict)


def lemma_2_5_check(xi: ExteriorElement, cal: Calibration,
                    samples: PlaneSampleSet,
                    generator_samples: PlaneSampleSet,
                    seed=0) -> Lemma25Report:
    """Evaluate the three equivalent conditions for a mass-normalized xi:
    cone membership, convex-hull membership, and pairing with phi equal 1,
    each within MEMBERSHIP_TOL; the mass bracket must meet 1 +- 2e-5."""
    if xi.n != cal.n or xi.p != cal.p:
        raise ValueError("degree/dimension mismatch between xi and calibration")
    upper, lower, mass_meta = mass_norm_estimate(xi, generator_samples,
                                                 seed=seed)
    if not (lower <= 1.0 + 2e-5 and upper >= 1.0 - 2e-5):
        raise ValueError(
            f"mass-normalization failure: bracket [{lower:.8f}, {upper:.8f}] "
            "does not contain 1")
    rep1 = cone_membership(xi, cal, samples, seed=seed)
    cond1 = rep1.status != "Outside"

    # convex-hull version: an LP over the atoms found during the membership
    # solve, weights >= 0 summing to one; phase 1 gives the least L1 residual
    xi_vec = xi.to_coeff_vector()
    planes = rep1.meta["planes"]
    A = np.column_stack([pl.pvector().to_coeff_vector() for pl in planes])
    hull = solve_lp(np.zeros(A.shape[1]), np.vstack([A, np.ones(A.shape[1])]),
                    np.append(xi_vec, 1.0))
    if hull.status in ('maxiter', 'singular'):
        raise RuntimeError(f"hull LP failed with status {hull.status}")
    res2 = hull.phase1_obj
    cond2 = bool(res2 <= MEMBERSHIP_TOL * max(1.0, np.linalg.norm(xi_vec)))

    val = pairing(cal.form, xi)
    cond3 = bool(abs(val - 1.0) <= MEMBERSHIP_TOL)

    conditions = {
        "cone_membership": (bool(cond1), rep1.margin),
        "hull_membership": (cond2, float(res2)),
        "pairing_equals_one": (cond3, val - 1.0),
    }
    agree = cond1 == cond2 == cond3
    return Lemma25Report(conditions, agree, (lower, upper),
                         {"mass": mass_meta, "membership": rep1.meta})
