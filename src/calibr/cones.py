"""Convex geometry of the positivity cones attached to a calibration.

Cone queries on a Kaehler form are exact (one eigendecomposition on its top
singular block, `grassmann.kaehler_structure`), which covers every
calibration in degree 2 and codegree 2, and so is the mass norm wherever
the comass is.  Other cone queries run against a finite sample of G(phi),
which approximates the exact cones from below; every report carries the
sample count, the tolerances and ``meta["exact"]``.  The mass norm and
sampled membership share one column-generation loop, `_generate`.  Every
LP runs on the in-repo simplex (`calibr.lp`), so no cone query loads scipy.
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
from .lp import FEAS_TOL, solve_lp

BOUNDARY_TOL = 1e-6
MEMBERSHIP_TOL = 1e-6    # relative residual of a member's decomposition
SEPARATION_STARTS = 8   # sampled starts of each pricing extremum
GAP_TOL = 1e-9      # mass loop: bracket width, or dual comass above one


def nnls(A, b):
    """scipy's NNLS: (x >= 0 minimizing |A x - b|, that residual norm).
    Kept for the benchmark's tracer, which wraps it by name, and a test."""
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
    """Nonnegative decomposition of xi over phi-planes: exact on a Kaehler
    form (`_kaehler_atoms`; the sample may be empty), with r the residual
    of the nearest point, else over sampled planes (`_sampled_membership`),
    with r the dual of its L1-residual LP.  Outside when
    ``meta["residual"]``, |r|/|xi| or the L1 residual over |xi|, exceeds
    MEMBERSHIP_TOL, with margin minus it and ``meta["separating_form"]``
    -r/|r|, negative on xi and nonnegative on the atoms; its minimum over
    G(phi), exact or the loop's last pricing, is ``meta["separating_min"]``,
    a certificate when nonnegative.  ``meta["capped"]``: the round cap
    stopped the loop.  A member's margin is its largest minimum atom
    weight over |xi|, Interior above BOUNDARY_TOL, for the cone of the
    atoms (meta["planes"]) only: three sampled associative planes can read
    Boundary."""
    if xi.n != cal.n or xi.p != cal.p:
        raise ValueError("degree/dimension mismatch between xi and calibration")
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be at least 0, got {max_rounds}")
    xi_vec = xi.to_coeff_vector()
    scale = max(np.linalg.norm(xi_vec), 1e-300)
    structure = kaehler_structure(cal.form)
    exact = structure is not None
    if exact:
        planes, coeffs = _kaehler_atoms(xi, cal, *structure)
        r = xi_vec - _columns(planes) @ coeffs
        residual, capped = np.linalg.norm(r) / scale, False
    elif len(samples) == 0:
        raise ValueError("empty sample set")
    else:
        planes, coeffs, residual, r, pricing, capped = _sampled_membership(
            xi, scale, cal, samples, max_rounds, seed)
    tolerances = {"membership_tol": MEMBERSHIP_TOL,
                  "boundary_tol": BOUNDARY_TOL}
    meta = {"sample_count": len(samples), "atom_count": len(planes),
            "residual": residual, "planes": planes,
            "weights": coeffs, "exact": exact, "capped": capped}
    if residual > MEMBERSHIP_TOL:
        meta["separating_form"] = sep = _unit_form(cal, -r)
        if exact:
            pricing = constrained_extremum(sep, cal, samples, "min")
        meta["separating_min"] = pricing
        return ConeReport("Outside", -residual, None, tolerances, None, meta)
    certificate = None
    if residual <= 1e-8:
        active = [(float(c), pl) for c, pl in zip(coeffs, planes) if c > 1e-12]
        certificate = {"weights": [c for c, _ in active],
                       "planes": [pl for _, pl in active]}
    margin = (coeffs.min() / scale if exact
              else _member_margin(_columns(planes), coeffs / scale))
    status = "Boundary" if abs(margin) <= BOUNDARY_TOL else "Interior"
    return ConeReport(status, margin, certificate, tolerances, None, meta)


def _columns(planes):
    return np.column_stack([pl.pvector().to_coeff_vector() for pl in planes])


def _unit_form(cal, vec):
    return ExteriorElement.from_coeff_vector(
        cal.n, cal.p, vec / np.linalg.norm(vec), drop_tol=0.0)


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


def _sampled_membership(xi, scale, cal, samples, max_rounds, seed):
    """Column generation over the sampled planes on the LP min 1.(s+ + s-)
    subject to A w + s+ - s- = xi, w, s >= 0, whose dual y has A^T y <= 0
    and |y|_inf <= 1: -y/|y| is nonnegative on the atoms and negative on
    xi.  Each round prices it over G(phi) by one constrained extremum and
    adds the plane while the simplex would pivot it in (above FEAS_TOL).
    Returns the atoms, weights, L1 residual over |xi|, last dual y and
    pricing (None if no round priced) and whether the cap stopped it."""
    planes = list(samples.planes)
    cols = [*samples.pvectors()]
    # the plane best aligned with xi, if a phi-plane: without it e123 on
    # associative reads Outside (test_calibrated_plane_off_the_sample) and
    # a midpoint on omega Boundary (TestSampledRouteOnOmega)
    cm_xi = comass((1.0 / scale) * xi, multistarts=8, seed=seed)
    if (pairing(cal.form, cm_xi.plane.pvector())
            >= 1.0 - max(MEMBERSHIP_TOL, samples.tolerance)):
        planes.append(polish_plane(cal.form, cm_xi.plane)[0])
        cols.append(planes[-1].pvector().to_coeff_vector())
    d = len(cols[0])
    pricing = None

    def lp(A):
        return (np.append(np.zeros(A.shape[1]), np.ones(2 * d)),
                np.hstack([A, np.eye(d), -np.eye(d)]), xi.to_coeff_vector())

    def price(res, round_k):
        nonlocal pricing
        if res.obj <= MEMBERSHIP_TOL * scale:
            return None
        pricing = constrained_extremum(
            _unit_form(cal, -res.y), cal, samples, "min", seed=seed + round_k,
            starts_limit=SEPARATION_STARTS, extra_starts=2)
        col = pricing.plane.pvector().to_coeff_vector()
        # a column closer to zero would join the atoms unused to the cap
        if col @ res.y <= FEAS_TOL:
            return None
        planes.append(pricing.plane)
        return col

    res, _, capped = _generate(cols, lp, price, max_rounds + 1)
    m = len(res.x) - 2 * d      # a capped loop priced one plane more
    return planes[:m], res.x[:m], res.obj / scale, res.y, pricing, capped


def _generate(cols, lp, price, max_rounds):
    """Column generation (Chvatal, Linear Programming, ch. 8): solve the LP
    (c, M, b) = ``lp(A)``, A = column_stack(cols) and M opening with k
    copies of A, and append ``price(result, round)`` to cols until None.
    The first LP starts cold, each later one at the last basis, shifted by
    q in the q-th copy of A and by k past them (an artificial, past M then,
    starts it cold).  Returns the last LP, the LPs solved and whether
    ``max_rounds`` ran out, the last priced column then in no LP."""
    res = None
    for round_k in range(max_rounds):
        A = np.column_stack(cols)
        c, M, b = lp(A)
        basis = None if res is None else res.basis + np.minimum(
            res.basis // (A.shape[1] - 1), M.shape[1] - width)
        res, width = solve_lp(c, M, b, basis=basis), M.shape[1]
        if res.status != 'optimal':
            raise RuntimeError(f"LP failed with status {res.status}")
        col = price(res, round_k)
        if col is None:
            return res, round_k + 1, False
        cols.append(col)
    return res, max_rounds, True


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
    simple unit p-vectors, grown by `_generate` with the plane of the LP
    dual's `comass` while that exceeds one.  Lower: best pairing against
    the dual and other forms, each divided by its comass.

    ``meta["lower_certified"]`` is True when the form behind ``lower`` had an
    exact comass, so that ``lower`` is a certified lower bound; otherwise
    it divides by a best-found comass and may overshoot the mass.
    ``meta["capped"]`` is True when the loop stopped at ``max_rounds`` with
    the bracket still wider than GAP_TOL.  Raises RuntimeError when
    ``lower`` exceeds ``upper`` beyond rounding.
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
    dual_comass, saturated = None, True

    def lp(A):
        return np.ones(2 * A.shape[1]), np.hstack([A, -A]), xi_vec

    def price(res, round_k):
        nonlocal dual_comass, saturated
        if res.obj - lower <= GAP_TOL * max(1.0, res.obj):
            return None
        dual_form = ExteriorElement.from_coeff_vector(n, p, res.y,
                                                      drop_tol=0.0)
        cm = comass(dual_form, multistarts=comass_multistarts,
                    seed=seed + round_k)
        dual_comass, saturated = cm.value, cm.saturated
        if dual_comass > 1e-12:
            offer(dual_form, cm, max(dual_comass, 1.0))
        if dual_comass <= 1.0 + GAP_TOL:
            return None
        return cm.plane.pvector().to_coeff_vector()

    # the first LP starts cold: a basis of signed coordinate columns would
    # change which optimal dual of a degenerate LP is priced
    res, rounds, capped = _generate(cols, lp, price, max_rounds)
    upper = res.obj
    if lower > upper * (1.0 + 1e-12):
        raise RuntimeError(
            f"mass bracket inverted: lower {lower!r} > upper {upper!r}")
    return upper, lower, {"rounds": rounds, "dual_comass": dual_comass,
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
    A = _columns(rep1.meta["planes"])
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
