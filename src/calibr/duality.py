"""Finite Farkas-lemma models of the Hahn-Banach dualities: the boundary
characterizations (plain and mass-bounded) and the Poisson-Jensen / hull
equivalence, each as a primal/dual LP pair whose exact alternative is
checked on both sides.

These are explicitly labeled finite analogues, not discretizations with
convergence guarantees: the continuum statements quantify over all
plurisubharmonic functions and all positive currents, while the models
quantify over a polynomial test family and a finite plane dictionary.
Every report carries the family degree, dictionary size and tolerances so
the gap stays visible.  The finite models need no exactness hypothesis on
the calibration: finitely many atoms have finite mass a priori.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibrations import Calibration
from .exterior import derivation_tensor, lex_indices, pairing
from .grassmann import PlaneSampleSet
from .lp import solve_lp
from .polynomial import (PolyForm, Polynomial, integrate_over_box,
                         monomial_exponents)

MARGIN_TOL = 1e-6
FEAS_TOL = 1e-7


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------

def _site_box(sites, pad=0.5):
    sites = np.asarray(sites, dtype=float)
    lo = sites.min(axis=0) - pad
    hi = sites.max(axis=0) + pad
    return lo, hi


def _orthonormalize_polys(polys, lo, hi):
    """Gram-Schmidt in L2 of the box; drops near-dependent members."""
    out = []
    for p in polys:
        q = p
        for b in out:
            q = q - integrate_over_box(q * b, lo, hi) * b
        nrm = integrate_over_box(q * q, lo, hi)
        if nrm > 1e-18:
            out.append((1.0 / np.sqrt(nrm)) * q)
    return out


def scalar_test_family(n, degree, lo, hi):
    """Orthonormalized nonconstant monomials up to the given total degree."""
    polys = [Polynomial.monomial(n, e)
             for e in monomial_exponents(n, degree, include_constant=False)]
    return _orthonormalize_polys(polys, lo, hi)


def form_test_family(n, p, degree, lo, hi):
    """(p-1)-forms with orthonormalized polynomial coefficients.

    Forms with distinct dx_I are orthogonal already, so orthonormalizing
    the scalar factors suffices.
    """
    polys = _orthonormalize_polys(
        [Polynomial.monomial(n, e) for e in monomial_exponents(n, degree)],
        lo, hi)
    return [PolyForm(n, p - 1, {idx: poly})
            for idx in lex_indices(n, p - 1) for poly in polys]


@dataclass
class FiniteDualityModel:
    calibration: Calibration
    sites: np.ndarray                      # (num_sites, n)
    dictionary: list                       # per site: list of SimplePlane
    test_family: list                      # PolyForm or Polynomial members
    kind: str                              # 'boundary' | 'jensen'
    degree: int
    tolerances: dict = field(default_factory=dict)

    @property
    def atoms(self):
        return [(i, pl) for i, planes in enumerate(self.dictionary)
                for pl in planes]

    def describe(self):
        return {"kind": self.kind, "degree": self.degree,
                "sites": len(self.sites),
                "dictionary_size": sum(len(pl) for pl in self.dictionary),
                "family_size": len(self.test_family),
                "calibration": self.calibration.name}


def _make_dictionary(sites, samples, planes_per_site, dictionary,
                     extra_planes):
    if dictionary is not None:
        if len(dictionary) != len(sites):
            raise ValueError("dictionary must list planes per site")
        return [list(pl) for pl in dictionary]
    per = planes_per_site or len(samples.planes)
    base = list(samples.planes[:per]) + list(extra_planes or [])
    return [list(base) for _ in range(len(sites))]


def build_boundary_model(cal: Calibration, sites, samples: PlaneSampleSet,
                         degree=2, planes_per_site=None, pad=0.5,
                         dictionary=None, extra_planes=None) -> FiniteDualityModel:
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    lo, hi = _site_box(sites, pad)
    family = form_test_family(cal.n, cal.p, degree, lo, hi)
    dictionary = _make_dictionary(sites, samples, planes_per_site,
                                  dictionary, extra_planes)
    model = FiniteDualityModel(cal, sites, dictionary, family, "boundary",
                               degree)
    _check_family_rank(model)
    return model


def build_jensen_model(cal: Calibration, sites, samples: PlaneSampleSet,
                       degree=2, planes_per_site=None, pad=0.5,
                       dictionary=None, extra_planes=None) -> FiniteDualityModel:
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    lo, hi = _site_box(sites, pad)
    family = scalar_test_family(cal.n, degree, lo, hi)
    dictionary = _make_dictionary(sites, samples, planes_per_site,
                                  dictionary, extra_planes)
    model = FiniteDualityModel(cal, sites, dictionary, family, "jensen",
                               degree)
    _check_family_rank(model)
    return model


def _family_coeff_matrix(model):
    if isinstance(model.test_family[0], Polynomial):
        keys = sorted({k for m in model.test_family for k in m.terms})
        return np.array([[m.terms.get(k, 0.0) for k in keys]
                         for m in model.test_family])
    keys = sorted({(idx, k) for m in model.test_family
                   for idx, poly in m.comps.items() for k in poly.terms})
    zero = Polynomial.constant(model.calibration.n, 0.0)
    return np.array([[m.comps.get(idx, zero).terms.get(k, 0.0)
                      for idx, k in keys] for m in model.test_family])


def _check_family_rank(model):
    mat = _family_coeff_matrix(model)
    rank = np.linalg.matrix_rank(mat, tol=1e-10)
    if rank != len(model.test_family):
        raise ValueError(
            f"test family is rank-deficient: rank {rank} of "
            f"{len(model.test_family)}")


# ---------------------------------------------------------------------------
# assembled LP data
# ---------------------------------------------------------------------------

def assemble_boundary_model(model: FiniteDualityModel, S_values):
    """Constraint matrix A[k, atom] = (d beta_k)(x_i)(xi_ij) and the
    right-hand side of functional values S(beta_k)."""
    if model.kind != "boundary":
        raise ValueError("not a boundary model")
    S_values = np.asarray(S_values, dtype=float)
    if S_values.shape != (len(model.test_family),):
        raise ValueError("S must supply one value per test form")
    atoms = model.atoms
    A = np.zeros((len(model.test_family), len(atoms)))
    for k, beta in enumerate(model.test_family):
        dbeta = beta.d()
        for col, (i, pl) in enumerate(atoms):
            frozen = dbeta.at(model.sites[i])
            A[k, col] = pairing(frozen, pl.pvector())
    return A, S_values


def atom_boundary_values(model: FiniteDualityModel, site_index, plane):
    """S(beta_k) for the boundary of a single unit atom at a site: the
    calibrated analogue of d beta evaluated on the plane there."""
    out = np.zeros(len(model.test_family))
    x = model.sites[site_index]
    for k, beta in enumerate(model.test_family):
        out[k] = pairing(beta.d().at(x), plane.pvector())
    return out


@dataclass
class AlternativeResult:
    primal: str                       # 'Feasible' | 'Infeasible'
    weights: np.ndarray | None
    dual: str | None                  # 'Certificate' | None
    certificate: np.ndarray | None
    margin: float | None
    consistent: bool
    boundary_tie: bool = False
    meta: dict = field(default_factory=dict)


def _dual_separation_boundary(A, s, phi_values=None, lam=None):
    """Search for coefficients a with A^T a >= 0 (or >= -phi/lam in the
    mass-bounded variant) and s.a as negative as possible; box-normalized."""
    K, m = A.shape
    # variables: a (free, boxed in [-1, 1] via shift)
    lower = -np.ones(K)
    upper = np.ones(K)
    if lam is None:
        # min s.a  s.t.  A^T a >= 0
        rhs = np.zeros(m)
    else:
        # min s.a  s.t.  A^T a >= -phi(xi)/1 scaled by lambda later
        rhs = -np.asarray(phi_values, dtype=float)
    # slack form: A^T a - t = rhs, t >= 0
    Aeq = np.hstack([A.T, -np.eye(m)])
    c = np.concatenate([s, np.zeros(m)])
    res = solve_lp(c, Aeq, rhs,
                   lower=np.concatenate([lower, np.zeros(m)]),
                   upper=np.concatenate([upper, np.full(m, np.inf)]))
    if res.status != 'optimal':
        return None, None
    a = res.x[:K]
    return a, res.obj


def boundary_alternative(model: FiniteDualityModel, S_values, lam=None,
                         margin_tol=MARGIN_TOL) -> AlternativeResult:
    """Exact finite alternative for the boundary model.

    Primal: nonnegative atom weights whose boundary matches S (with total
    weight at most lam when given).  Dual: a test form whose differential is
    nonnegative on every atom (shifted by phi in the bounded variant) yet
    pairs strictly negatively (below -lam) with S.  Exactly one side should
    succeed; ties within the margin tolerance are flagged as boundary
    instances.
    """
    A, s = assemble_boundary_model(model, S_values)
    m = A.shape[1]
    meta = model.describe()
    phi_vals = np.array([pairing(model.calibration.form, pl.pvector())
                         for _, pl in model.atoms])
    if lam is None:
        primal = solve_lp(np.zeros(m), A, s)
        feasible = primal.status == 'optimal'
        weights = primal.x if feasible else None
        a, val = _dual_separation_boundary(A, s)
        rel = (-val / max(np.linalg.norm(a), 1e-300)) if a is not None else 0.0
        have_cert = rel > margin_tol
        margin = rel if have_cert else None
        tie = not have_cert and rel > 1e-9
    else:
        # minimum-mass LP decides both sides at once
        minmass = solve_lp(np.ones(m), A, s)
        if minmass.status == 'optimal':
            lam_star = minmass.obj
            meta["lambda_threshold"] = lam_star
            feasible = lam_star <= lam + FEAS_TOL
            weights = minmass.x if feasible else None
            if feasible:
                a, val, have_cert, margin, tie = None, None, False, None, False
            else:
                # dual of the min-mass LP: y with A^T y <= 1, s.y = lam*
                y = minmass.y
                a = -y
                val = s @ a          # equals -lam_star
                have_cert = val < -(lam + margin_tol)
                margin = -(val + lam) if have_cert else None
                tie = not have_cert
        else:
            feasible = False
            weights = None
            y = minmass.y            # Farkas certificate from phase 1
            a = -y
            val = float(s @ a)
            have_cert = val < -1e-12
            # any scaling passes below -lam, so report the raw margin
            margin = -val if have_cert else None
            tie = not have_cert
        meta["lambda"] = lam
    # verify the sides against their definitions before reporting
    if feasible and weights is not None:
        recon = A @ weights
        if np.abs(recon - s).max() > FEAS_TOL * max(1.0, np.abs(s).max()):
            feasible = False
            weights = None
    if have_cert:
        slack = A.T @ a
        floor = 0.0 if lam is None else -phi_vals
        if (slack - floor).min() < -1e-8:
            have_cert = False
    consistent = feasible != have_cert and not tie
    return AlternativeResult(
        'Feasible' if feasible else 'Infeasible', weights,
        'Certificate' if have_cert else None,
        a if have_cert else None, margin, consistent, tie, meta)


# ---------------------------------------------------------------------------
# Jensen / hull alternative
# ---------------------------------------------------------------------------

def assemble_jensen_model(model: FiniteDualityModel, K_indices, x_index):
    """Rows: one per family member f_k (atom columns carry the second-order
    operator of f_k on the plane; measure columns carry -f_k at the K sites)
    plus the probability-normalization row."""
    if model.kind != "jensen":
        raise ValueError("not a jensen model")
    if x_index in K_indices:
        raise ValueError("x must not be a K site")
    if not len(K_indices):
        raise ValueError("K must be nonempty")
    atoms = model.atoms
    nK = len(K_indices)
    K_pts = model.sites[list(K_indices)]
    x = model.sites[x_index]
    rows = len(model.test_family) + 1
    A = np.zeros((rows, len(atoms) + nK))
    b = np.zeros(rows)
    # per atom, the matrix G with (H extended into phi)(xi) = <H, G>
    cal = model.calibration
    Dphi = derivation_tensor(cal.n, cal.p) @ cal.form.to_coeff_vector()
    G = np.array([Dphi @ pl.pvector().to_coeff_vector()
                  for _, pl in atoms]).reshape(-1, cal.n, cal.n)
    site_of = [i for i, _ in atoms]
    for k, f in enumerate(model.test_family):
        H = np.array([f.hessian_at(site) for site in model.sites])
        A[k, :len(atoms)] = np.einsum("alm,alm->a", H[site_of], G)
        for j in range(nK):
            A[k, len(atoms) + j] = -f(K_pts[j])
        b[k] = -f(x)
    A[-1, len(atoms):] = 1.0
    b[-1] = 1.0
    return A, b


def jensen_alternative(model: FiniteDualityModel, K_indices, x_index,
                       margin_tol=MARGIN_TOL) -> AlternativeResult:
    """Exact finite alternative for the hull model.

    Primal: atom weights and a probability measure on the K sites solving
    the finite Poisson-Jensen system for every family member.  Dual: a
    member of the family span, finitely plurisubharmonic on the dictionary,
    strictly separating x from K.
    """
    A, b = assemble_jensen_model(model, K_indices, x_index)
    atoms = model.atoms
    nK = len(K_indices)
    primal = solve_lp(np.zeros(A.shape[1]), A, b)
    feasible = primal.status == 'optimal'
    weights = primal.x if feasible else None

    # independent dual search: maximize f(x) - t with t >= f on K and the
    # dictionary Hessian pairings nonnegative, |a| <= 1 boxwise
    K = len(model.test_family)
    fx = -b[:K]
    fK = -A[:K, len(atoms):].T                                # (nK, K)
    Hmat = A[:K, :len(atoms)].T
    # variables: a (boxed), t (free via box), slacks
    # constraints: Hmat a - u = 0 (u >= 0);  t - fK a - v = 0 (v >= 0)
    nA, nT = K, 1
    big = 1e6
    ncols = nA + nT + len(atoms) + nK
    Aeq = np.zeros((len(atoms) + nK, ncols))
    Aeq[:len(atoms), :nA] = Hmat
    Aeq[:len(atoms), nA + nT:nA + nT + len(atoms)] = -np.eye(len(atoms))
    Aeq[len(atoms):, :nA] = -fK
    Aeq[len(atoms):, nA] = 1.0
    Aeq[len(atoms):, nA + nT + len(atoms):] = -np.eye(nK)
    c = np.zeros(ncols)
    c[:nA] = -fx          # maximize fx.a - t  ==  min -fx.a + t
    c[nA] = 1.0
    lower = np.concatenate([-np.ones(nA), [-big], np.zeros(len(atoms) + nK)])
    upper = np.concatenate([np.ones(nA), [big],
                            np.full(len(atoms) + nK, np.inf)])
    dual = solve_lp(c, Aeq, np.zeros(len(atoms) + nK), lower=lower,
                    upper=upper)
    have_cert = False
    margin = None
    a = None
    tie = False
    if dual.status == 'optimal':
        a = dual.x[:nA]
        sep = -dual.obj                        # f(x) - max_K f
        rel = sep / max(np.linalg.norm(a), 1e-300)
        if rel > margin_tol:
            have_cert = True
            margin = rel
        elif rel > 1e-9:
            tie = True
    # verify the feasible side reproduces its constraints
    if feasible and weights is not None:
        if np.abs(A @ weights - b).max() > FEAS_TOL * max(1.0, np.abs(b).max()):
            feasible = False
            weights = None
    meta = model.describe()
    meta.update({"K_sites": list(K_indices), "x": int(x_index)})
    consistent = feasible != have_cert and not tie
    return AlternativeResult(
        'Feasible' if feasible else 'Infeasible', weights,
        'Certificate' if have_cert else None, a, margin,
        consistent, tie, meta)


def active_site_hull_check(model: FiniteDualityModel, K_indices, x_index,
                           result: AlternativeResult, weight_tol=1e-9,
                           margin_tol=MARGIN_TOL):
    """Finite shadow of the support property: every atom the feasible primal
    actually uses must sit at a site the dual cannot separate from K."""
    if result.primal != 'Feasible' or result.weights is None:
        return {"applicable": False}
    atoms = model.atoms
    active_sites = sorted({atoms[c][0] for c in range(len(atoms))
                           if result.weights[c] > weight_tol})
    offenders = []
    for i in active_sites:
        if i == x_index or i in K_indices:
            continue
        sub = jensen_alternative(model, K_indices, i, margin_tol=margin_tol)
        if sub.dual == 'Certificate':
            offenders.append(i)
    return {"applicable": True, "active_sites": active_sites,
            "offenders": offenders, "ok": not offenders}
