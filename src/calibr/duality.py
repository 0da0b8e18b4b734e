"""Finite Farkas-lemma models of the Hahn-Banach dualities: the boundary
characterizations (plain and mass-bounded) and the Poisson-Jensen / hull
equivalence, each as a primal/dual LP pair whose exact alternative is
checked on both sides: every alternative hands its LP answers to one verdict
routine, ``_verdict``, which re-checks both sides and builds the report.

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
from functools import cached_property

import numpy as np

from .calibrations import Calibration
from .exterior import derivation_tensor, lex_indices, wedge_matrix
from .grassmann import PlaneSampleSet
from .lp import solve_lp
from .polynomial import legendre_tables, monomial_exponents

MARGIN_TOL = 1e-6
FEAS_TOL = 1e-7
BOX_PAD = 0.5       # the test box is the sites' bounding box padded by this


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------

def _family(kind, n, p, degree):
    """Member labels of a test family: each alpha of per-axis Legendre
    degrees with total degree <= degree, in graded-lex order (the constant
    only for boundary models), and for boundary models each alpha times
    every dx_J, J in lex order (the (p-1)-forms alpha dx_J)."""
    alphas = monomial_exponents(n, degree, include_constant=kind == "boundary")
    if not alphas:
        raise ValueError(f"a test family of degree {degree} has no member")
    if kind == "jensen":
        return alphas
    return [(a, J) for J in lex_indices(n, p - 1) for a in alphas]


@dataclass
class FiniteDualityModel:
    calibration: Calibration
    sites: np.ndarray                      # (num_sites, n)
    dictionary: list                       # per site: list of SimplePlane
    test_family: list                      # alpha, or (alpha, J), labels
    kind: str                              # 'boundary' | 'jensen'
    degree: int
    box: tuple                             # (lo, hi) of the test box

    @property
    def atoms(self):
        return [(i, pl) for i, planes in enumerate(self.dictionary)
                for pl in planes]

    @cached_property
    def _atom_table(self):
        """Site index and Pluecker coefficient vector of every atom, in
        ``atoms`` order; built once, so the dictionary is fixed after it."""
        atoms = self.atoms
        cal = self.calibration
        site_of = np.array([i for i, _ in atoms], dtype=int)
        X = np.array([pl.pvector().to_coeff_vector() for _, pl in atoms])
        return site_of, X.reshape(len(atoms), len(lex_indices(cal.n, cal.p)))

    @cached_property
    def _alphas(self):
        """(members, n) per-axis Legendre degrees of the scalar factors."""
        return np.array(list(dict.fromkeys(
            m if self.kind == "jensen" else m[0] for m in self.test_family)))

    def _derivatives(self, sites, orders):
        """(len(orders), members, len(sites)) derivatives of the scalar
        factors at the sites, of per-axis orders given by each row of
        orders: products, in axis order, of one table entry per axis."""
        T = legendre_tables(sites, *self.box, self.degree)
        out = np.ones((len(orders), len(self._alphas), len(sites)))
        for l in range(T.shape[1]):
            out = out * T[orders[:, l, None], l, self._alphas[:, l]]
        return out

    @cached_property
    def _boundary_matrix(self):
        """A[k, atom] = (d beta_k)(x_i)(xi_ij) of a boundary model, from the
        atom table; assembled once and read-only."""
        site_of, X = self._atom_table
        A = _pair_rows(_frozen_differentials(self, self.sites)[:, site_of], X)
        A.flags.writeable = False
        return A

    @cached_property
    def _jensen_table(self):
        """Site values (K, sites) of every family member and the
        second-order rows (K, atoms) of a Jensen model: each member's
        Hessian at the atom's site paired with the atom's matrix G, where
        (H extended into phi)(xi) = <H, G>.  Built once and read-only."""
        site_of, X = self._atom_table
        cal = self.calibration
        n, P = cal.n, len(self.sites)
        I, J = np.triu_indices(n)
        E = np.eye(n, dtype=int)
        D = self._derivatives(self.sites, np.vstack([0 * E[0], E[I] + E[J]]))
        vals, H = D[0], np.empty((len(D[0]), P, n, n))
        H[:, :, I, J] = H[:, :, J, I] = D[1:].transpose(1, 2, 0)
        Dphi = derivation_tensor(cal.n, cal.p) @ cal.form.to_coeff_vector()
        G = np.array([Dphi @ xi for xi in X]).reshape(-1, cal.n, cal.n)
        rows = np.array([np.einsum("alm,alm->a", Hk[site_of], G) for Hk in H])
        vals.flags.writeable = rows.flags.writeable = False
        return vals, rows

    def describe(self):
        return {"kind": self.kind, "degree": self.degree,
                "sites": len(self.sites),
                "dictionary_size": sum(len(pl) for pl in self.dictionary),
                "family_size": len(self.test_family),
                "calibration": self.calibration.name}


def _build_model(kind, cal, sites, samples, degree, planes_per_site,
                 dictionary, extra_planes):
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    if sites.ndim != 2 or sites.shape[1] != cal.n or not len(sites):
        raise ValueError(f"sites must be a (k, {cal.n}) array for "
                         f"{cal.name}, got shape {sites.shape}")
    if not np.isfinite(sites).all():
        raise ValueError("sites must be finite")
    lo, hi = sites.min(axis=0) - BOX_PAD, sites.max(axis=0) + BOX_PAD
    family = _family(kind, cal.n, cal.p, degree)
    if not (hi > lo).all():
        raise ValueError(f"the test box needs hi > lo, got {lo} and {hi}")
    if dictionary is None:
        per = planes_per_site or len(samples.planes)
        dictionary = [list(samples.planes[:per]) + list(extra_planes or [])
                      ] * len(sites)
    elif len(dictionary) != len(sites):
        raise ValueError("dictionary must list planes per site")
    return FiniteDualityModel(cal, sites, [list(pl) for pl in dictionary],
                              family, kind, degree, (lo, hi))


def build_boundary_model(cal: Calibration, sites, samples: PlaneSampleSet,
                         degree=2, planes_per_site=None,
                         dictionary=None) -> FiniteDualityModel:
    return _build_model("boundary", cal, sites, samples, degree,
                        planes_per_site, dictionary, None)


def build_jensen_model(cal: Calibration, sites, samples: PlaneSampleSet,
                       degree=2, planes_per_site=None, dictionary=None,
                       extra_planes=None) -> FiniteDualityModel:
    return _build_model("jensen", cal, sites, samples, degree,
                        planes_per_site, dictionary, extra_planes)


# ---------------------------------------------------------------------------
# assembled LP data
# ---------------------------------------------------------------------------

def _pair_rows(F, X):
    """Pairings sum_j F[..., j] X[..., j] added in lex order, the order in
    which ``exterior.pairing`` adds p-vectors and one-component test forms,
    so each entry equals the term-by-term pairing bit for bit (an einsum or
    BLAS contraction may fuse or reorder the sum)."""
    out = np.zeros(np.broadcast_shapes(F.shape[:-1], X.shape[:-1]))
    for j in range(F.shape[-1]):
        out += F[..., j] * X[..., j]
    return out


def _frozen_differentials(model, sites):
    """(family, sites, C(n,p)) coefficients of each d beta_k = d(f dx_J)
    frozen at each site: the factor's gradient there wedged with dx_J."""
    n, p = model.calibration.n, model.calibration.p
    F = wedge_matrix(model._derivatives(sites, np.eye(n, dtype=int)), n, p)
    return F.reshape(-1, len(sites), F.shape[-1])


def assemble_boundary_model(model: FiniteDualityModel, S_values):
    """Constraint matrix A[k, atom] = (d beta_k)(x_i)(xi_ij), cached
    read-only on the model, and the right-hand side of functional values
    S(beta_k)."""
    if model.kind != "boundary":
        raise ValueError("not a boundary model")
    S_values = np.asarray(S_values, dtype=float)
    if S_values.shape != (len(model.test_family),):
        raise ValueError("S must supply one value per test form")
    if not np.isfinite(S_values).all():
        raise ValueError("boundary values must be finite")
    return model._boundary_matrix, S_values


def atom_boundary_values(model: FiniteDualityModel, site_index, plane):
    """S(beta_k) for the boundary of a single unit atom at a site: the
    calibrated analogue of d beta evaluated on the plane there."""
    F = _frozen_differentials(model, model.sites[[site_index]])
    return _pair_rows(F[:, 0], plane.pvector().to_coeff_vector())


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


def _separation(M, c, lower, upper, n_cert, margin_tol):
    """The box-normalized dual search of both models: min c.v subject to
    M v >= 0 and lower <= v <= upper (lower <= 0 <= upper), solved from its
    feasible origin.  v = p - q is split at zero, p in [0, upper] and q in
    [0, -lower], and the slack form [M, -M, -I] (p, q, t) = 0 with t >= 0
    starts phase 2 at the slack basis -I, where every variable is 0.  The
    first n_cert coordinates of v are the certificate; its margin is -c.v
    over their norm.  Returns (certificate or None, have_cert, margin or
    None, tie, LP status)."""
    m, k = M.shape
    res = solve_lp(np.concatenate([c, -c, np.zeros(m)]),
                   np.hstack([M, -M, -np.eye(m)]), np.zeros(m),
                   upper=np.concatenate([upper, -lower, np.full(m, np.inf)]),
                   basis=np.arange(2 * k, 2 * k + m))
    if res.status != 'optimal':
        return None, False, None, False, res.status
    a = res.x[:n_cert] - res.x[k:k + n_cert]
    rel = -res.obj / max(np.linalg.norm(a), 1e-300)
    if rel > margin_tol:
        return a, True, rel, False, res.status
    return a, False, None, rel > 1e-9, res.status


def _verdict(model, margin_tol, A, b, weights, candidate, certifies, meta):
    """The reported alternative: the weights when A w meets b within
    FEAS_TOL relative to b, the candidate (a, have_cert, margin, tie) as a
    Certificate with its margin when ``certifies(a)`` re-checks it (else
    neither), consistent when exactly one side stands and there is no tie;
    meta is the model's description, the tolerances, then the path's keys."""
    if weights is not None and (np.abs(A @ weights - b).max()
                                > FEAS_TOL * max(1.0, np.abs(b).max())):
        weights = None
    a, have_cert, margin, tie = candidate
    if have_cert and not certifies(a):
        have_cert, margin = False, None
    feasible = weights is not None
    meta = {**model.describe(),
            "tolerances": {"margin_tol": margin_tol, "feas_tol": FEAS_TOL},
            **meta}
    return AlternativeResult(
        'Feasible' if feasible else 'Infeasible', weights,
        'Certificate' if have_cert else None, a if have_cert else None,
        margin, feasible != have_cert and not tie, tie, meta)


def boundary_alternative(model: FiniteDualityModel, S_values, lam=None,
                         margin_tol=MARGIN_TOL) -> AlternativeResult:
    """Exact finite alternative for the boundary model.

    Primal: nonnegative atom weights whose boundary matches S (with total
    weight at most lam when given).  Dual: a test form whose differential is
    nonnegative on every atom (shifted by phi in the bounded variant) yet
    pairs strictly negatively (below -lam) with S.  Exactly one side should
    succeed; ties within the margin tolerance are flagged as boundary
    instances.  ``meta["lp_status"]`` holds the status of each LP solved.
    """
    A, s = assemble_boundary_model(model, S_values)
    K, m = A.shape
    # a certificate has A^T a >= 0 on the atoms, or >= -phi when bounded
    floor = 0.0 if lam is None else -_pair_rows(
        model.calibration.form.to_coeff_vector(), model._atom_table[1])
    if lam is None:
        primal = solve_lp(np.zeros(m), A, s)
        weights = primal.x if primal.status == 'optimal' else None
        a, have_cert, margin, tie, status = _separation(
            A.T, s, -np.ones(K), np.ones(K), K, margin_tol)
        meta = {"lp_status": {"primal": primal.status, "separation": status}}
    else:
        # minimum-mass LP decides both sides at once; a status other than
        # optimal or infeasible decides neither
        minmass = solve_lp(np.ones(m), A, s)
        meta = {"lp_status": {"min_mass": minmass.status}}
        weights = None
        a, have_cert, margin, tie = None, False, None, False
        if minmass.status == 'optimal':
            lam_star = minmass.obj
            meta["lambda_threshold"] = lam_star
            if lam_star <= lam + FEAS_TOL:
                weights = minmass.x
            else:
                # dual of the min-mass LP: y with A^T y <= 1, s.y = lam*
                a = -minmass.y
                val = s @ a          # equals -lam_star
                have_cert = val < -(lam + margin_tol)
                margin = -(val + lam) if have_cert else None
                tie = not have_cert
        elif minmass.status == 'infeasible':
            a = -minmass.y           # Farkas certificate from phase 1
            val = float(s @ a)
            have_cert = val < -1e-12
            # any scaling passes below -lam, so report the raw margin
            margin = -val if have_cert else None
            tie = not have_cert
        meta["lambda"] = lam
    return _verdict(model, margin_tol, A, s, weights,
                    (a, have_cert, margin, tie),
                    lambda a: (A.T @ a - floor).min() >= -1e-8, meta)


# ---------------------------------------------------------------------------
# Jensen / hull alternative
# ---------------------------------------------------------------------------

def assemble_jensen_model(model: FiniteDualityModel, K_indices, x_index):
    """Rows: one per family member f_k (atom columns carry the second-order
    operator of f_k on the plane; measure columns carry -f_k at the K sites)
    plus the probability-normalization row, sliced from the model's cached
    table."""
    if model.kind != "jensen":
        raise ValueError("not a jensen model")
    if x_index in K_indices:
        raise ValueError("x must not be a K site")
    if not len(K_indices):
        raise ValueError("K must be nonempty")
    if not all(0 <= i < len(model.sites) for i in [*K_indices, x_index]):
        raise ValueError(f"K and x must index the {len(model.sites)} sites")
    vals, hess_rows = model._jensen_table
    K, m = hess_rows.shape
    A = np.zeros((K + 1, m + len(K_indices)))
    A[:K, :m] = hess_rows
    A[:K, m:] = -vals[:, list(K_indices)]
    A[-1, m:] = 1.0
    return A, np.append(-vals[:, x_index], 1.0)


def jensen_alternative(model: FiniteDualityModel, K_indices, x_index,
                       margin_tol=MARGIN_TOL) -> AlternativeResult:
    """Exact finite alternative for the hull model.

    Primal: atom weights and a probability measure on the K sites solving
    the finite Poisson-Jensen system for every family member.  Dual: a
    member of the family span, finitely plurisubharmonic on the dictionary,
    strictly separating x from K.  ``meta["lp_status"]`` holds the status of
    each LP solved.
    """
    A, b = assemble_jensen_model(model, K_indices, x_index)
    primal = solve_lp(np.zeros(A.shape[1]), A, b)

    # independent dual search over (a, t), |a| <= 1 boxwise: maximize
    # f(x) - t with the dictionary Hessian pairings of a nonnegative and
    # t >= f on K, i.e. Hmat a >= 0 and t - fK a >= 0
    K = len(model.test_family)
    n_atoms = A.shape[1] - len(K_indices)
    big = 1e6
    M = np.block([[A[:K, :n_atoms].T, np.zeros((n_atoms, 1))],
                  [A[:K, n_atoms:].T, np.ones((len(K_indices), 1))]])
    a, have_cert, margin, tie, status = _separation(
        M, np.append(b[:K], 1.0), np.append(-np.ones(K), -big),
        np.append(np.ones(K), big), K, margin_tol)

    # a certificate is psh on the atoms and f(x) exceeds f on K
    return _verdict(model, margin_tol, A, b,
                    primal.x if primal.status == 'optimal' else None,
                    (a, have_cert, margin, tie), lambda a: (
                        (A[:K, :n_atoms].T @ a).min() >= -1e-8
                        and -b[:K] @ a + (A[:K, n_atoms:].T @ a).min() > 0.0),
                    {"K_sites": list(K_indices), "x": int(x_index),
                     "lp_status": {"primal": primal.status,
                                   "separation": status}})
