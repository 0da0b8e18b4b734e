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
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular

from .calibrations import Calibration
from .exterior import DROP_TOL, derivation_tensor, lex_indices, lex_position
from .grassmann import PlaneSampleSet
from .lp import solve_lp
from .polynomial import (PolyForm, Polynomial, monomial_exponents,
                         values_and_hessians)

MARGIN_TOL = 1e-6
FEAS_TOL = 1e-7


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------

def _orthonormal_family(n, degree, lo, hi, include_constant):
    """Monomials of total degree <= degree (the constant when asked) made
    orthonormal in L2 of the box [lo, hi] as Gram-Schmidt in graded-lex
    order makes them: the rows of inv(L), L L^T = M the closed-form moment
    matrix (Golub-Van Loan, Matrix Computations, 5.2)."""
    exps = monomial_exponents(n, degree, include_constant)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if not exps:
        raise ValueError(f"a test family of degree {degree} has no member")
    if not (hi > lo).all():
        raise ValueError(f"the test box needs hi > lo, got {lo} and {hi}")
    E = np.array(exps)
    S = E[:, None] + E[None] + 1                  # (m, m, n) powers
    M = np.prod((hi ** S - lo ** S) / S, axis=2)
    C = solve_triangular(np.linalg.cholesky(M), np.eye(len(E)), lower=True)
    return [Polynomial(n, dict(zip(exps, row))) for row in C]


def scalar_test_family(n, degree, lo, hi):
    """Orthonormalized nonconstant monomials up to the given total degree."""
    return _orthonormal_family(n, degree, lo, hi, include_constant=False)


def form_test_family(n, p, degree, lo, hi):
    """(p-1)-forms with orthonormalized polynomial coefficients.

    Forms with distinct dx_I are orthogonal already, so orthonormalizing
    the scalar factors suffices.
    """
    polys = _orthonormal_family(n, degree, lo, hi, include_constant=True)
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
        vals, H = values_and_hessians(self.test_family, self.sites)
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


def _build_model(kind, cal, sites, samples, degree, planes_per_site, pad,
                 dictionary, extra_planes):
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    if sites.ndim != 2 or sites.shape[1] != cal.n or not len(sites):
        raise ValueError(f"sites must be a (k, {cal.n}) array for "
                         f"{cal.name}, got shape {sites.shape}")
    lo, hi = sites.min(axis=0) - pad, sites.max(axis=0) + pad
    if kind == "boundary":
        family = form_test_family(cal.n, cal.p, degree, lo, hi)
    else:
        family = scalar_test_family(cal.n, degree, lo, hi)
    if dictionary is None:
        per = planes_per_site or len(samples.planes)
        dictionary = [list(samples.planes[:per]) + list(extra_planes or [])
                      ] * len(sites)
    elif len(dictionary) != len(sites):
        raise ValueError("dictionary must list planes per site")
    model = FiniteDualityModel(cal, sites, [list(pl) for pl in dictionary],
                               family, kind, degree)
    _check_family_rank(model)
    return model


def build_boundary_model(cal: Calibration, sites, samples: PlaneSampleSet,
                         degree=2, planes_per_site=None, pad=0.5,
                         dictionary=None, extra_planes=None) -> FiniteDualityModel:
    return _build_model("boundary", cal, sites, samples, degree,
                        planes_per_site, pad, dictionary, extra_planes)


def build_jensen_model(cal: Calibration, sites, samples: PlaneSampleSet,
                       degree=2, planes_per_site=None, pad=0.5,
                       dictionary=None, extra_planes=None) -> FiniteDualityModel:
    return _build_model("jensen", cal, sites, samples, degree,
                        planes_per_site, pad, dictionary, extra_planes)


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
    """(family, sites, C(n,p)) coefficients of each d beta_k frozen at each
    site, entries at most DROP_TOL dropped as ``PolyForm.at`` drops them."""
    pos = lex_position(model.calibration.n, model.calibration.p)
    F = np.zeros((len(model.test_family), len(sites), len(pos)))
    comps = [(k, pos[idx], poly) for k, beta in enumerate(model.test_family)
             for idx, poly in beta.d().comps.items()]
    if comps:
        k, j, polys = zip(*comps)
        F[k, :, j] = values_and_hessians(polys, sites)[0]
    F[~(np.abs(F) > DROP_TOL)] = 0.0
    return F


def assemble_boundary_model(model: FiniteDualityModel, S_values):
    """Constraint matrix A[k, atom] = (d beta_k)(x_i)(xi_ij), cached
    read-only on the model, and the right-hand side of functional values
    S(beta_k)."""
    if model.kind != "boundary":
        raise ValueError("not a boundary model")
    S_values = np.asarray(S_values, dtype=float)
    if S_values.shape != (len(model.test_family),):
        raise ValueError("S must supply one value per test form")
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
    M v >= 0 and lower <= v <= upper, in slack form [M, -I] (v, t) = 0 with
    t >= 0.  The first n_cert coordinates of v are the certificate; its
    margin is -c.v over their norm.  Returns (certificate or None,
    have_cert, margin or None, tie)."""
    m = M.shape[0]
    res = solve_lp(np.concatenate([c, np.zeros(m)]),
                   np.hstack([M, -np.eye(m)]), np.zeros(m),
                   lower=np.concatenate([lower, np.zeros(m)]),
                   upper=np.concatenate([upper, np.full(m, np.inf)]))
    if res.status != 'optimal':
        return None, False, None, False
    a = res.x[:n_cert]
    rel = -res.obj / max(np.linalg.norm(a), 1e-300)
    if rel > margin_tol:
        return a, True, rel, False
    return a, False, None, rel > 1e-9


def _verified(A, b, weights):
    """The primal weights, or None when A w misses b by more than FEAS_TOL
    relative to b."""
    if weights is None:
        return None
    tol = FEAS_TOL * max(1.0, np.abs(b).max())
    return None if np.abs(A @ weights - b).max() > tol else weights


def _meta(model, margin_tol):
    """The model's description and the tolerances the alternative used."""
    return {**model.describe(),
            "tolerances": {"margin_tol": margin_tol, "feas_tol": FEAS_TOL}}


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
    K, m = A.shape
    meta = _meta(model, margin_tol)
    if lam is None:
        primal = solve_lp(np.zeros(m), A, s)
        weights = primal.x if primal.status == 'optimal' else None
        a, have_cert, margin, tie = _separation(
            A.T, s, -np.ones(K), np.ones(K), K, margin_tol)
    else:
        # minimum-mass LP decides both sides at once
        minmass = solve_lp(np.ones(m), A, s)
        weights = None
        if minmass.status == 'optimal':
            lam_star = minmass.obj
            meta["lambda_threshold"] = lam_star
            if lam_star <= lam + FEAS_TOL:
                weights = minmass.x
                a, have_cert, margin, tie = None, False, None, False
            else:
                # dual of the min-mass LP: y with A^T y <= 1, s.y = lam*
                a = -minmass.y
                val = s @ a          # equals -lam_star
                have_cert = val < -(lam + margin_tol)
                margin = -(val + lam) if have_cert else None
                tie = not have_cert
        else:
            a = -minmass.y           # Farkas certificate from phase 1
            val = float(s @ a)
            have_cert = val < -1e-12
            # any scaling passes below -lam, so report the raw margin
            margin = -val if have_cert else None
            tie = not have_cert
        meta["lambda"] = lam
    # verify the sides against their definitions before reporting
    weights = _verified(A, s, weights)
    if have_cert:
        floor = 0.0 if lam is None else -_pair_rows(
            model.calibration.form.to_coeff_vector(), model._atom_table[1])
        if (A.T @ a - floor).min() < -1e-8:
            have_cert = False
    feasible = weights is not None
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
    strictly separating x from K.
    """
    A, b = assemble_jensen_model(model, K_indices, x_index)
    primal = solve_lp(np.zeros(A.shape[1]), A, b)
    weights = _verified(A, b, primal.x if primal.status == 'optimal'
                        else None)

    # independent dual search over (a, t), |a| <= 1 boxwise: maximize
    # f(x) - t with the dictionary Hessian pairings of a nonnegative and
    # t >= f on K, i.e. Hmat a >= 0 and t - fK a >= 0
    K = len(model.test_family)
    n_atoms = A.shape[1] - len(K_indices)
    big = 1e6
    M = np.block([[A[:K, :n_atoms].T, np.zeros((n_atoms, 1))],
                  [A[:K, n_atoms:].T, np.ones((len(K_indices), 1))]])
    a, have_cert, margin, tie = _separation(
        M, np.append(b[:K], 1.0), np.append(-np.ones(K), -big),
        np.append(np.ones(K), big), K, margin_tol)
    meta = _meta(model, margin_tol)
    meta.update({"K_sites": list(K_indices), "x": int(x_index)})
    feasible = weights is not None
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
    site_of = model._atom_table[0]
    active = result.weights[:len(site_of)] > weight_tol
    active_sites = sorted(set(site_of[active].tolist()))
    offenders = []
    for i in active_sites:
        if i == x_index or i in K_indices:
            continue
        sub = jensen_alternative(model, K_indices, i, margin_tol=margin_tol)
        if sub.dual == 'Certificate':
            offenders.append(i)
    return {"applicable": True, "active_sites": active_sites,
            "offenders": offenders, "ok": not offenders}
