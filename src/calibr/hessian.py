"""The differential-operator layer for constant calibrations on flat R^n:
the first-order contraction operator, the second-order form-valued Hessian,
plurisubharmonicity classification, pluriharmonic-mod-d residuals, level-set
flatness, normality of a calibration, and the operator symbol.

Everything is pointwise: smooth fields enter through exact gradient/Hessian
suppliers.  Grassmannian quantifiers run over (refined) plane samples, so
results are certified relative to the sampled surrogate of G(phi), with
these exceptions: cone queries on Kaehler forms are exact; and normality
and level-set flatness take their phi-planes, in R^n and inside a
hyperplane, from the one source `grassmann.grassmann`, which draws them
from G(phi) itself on the forms `phi_structure` recognizes.  Flatness is one
`constrained_extremum` on the calibration restricted to the tangent
hyperplane, exact when that restriction is Kaehler on its top singular
block (a 2-form or an (n-3)-form restricting to a calibration: Kaehler
forms, special Lagrangian(3), coassociative) and best-found otherwise, or
the Hessian's exact value on the one plane drawn in the hyperplane when
every draw is that plane (Kaehler(2,1), Kaehler(3,2), quaternionic(2), and
lambda_example on a hyperplane holding its plane e12); a vacuous answer is
exact when the source says so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibrations import Calibration
from .cones import positivity_classify
from .exterior import (ExteriorElement, SimplePlane, _pluecker, compound,
                       derivation_extend, interior_product, lex_indices,
                       pairing, wedge, wedge_matrix)
from .fields import ScalarField
from .grassmann import (STRUCTURE_TOL, PlaneSampleSet, constrained_extremum,
                        grassmann, hyperplane_basis, kaehler_structure,
                        pullback, rng_stream, span_split)


def d_phi(f: ScalarField, x, cal: Calibration) -> ExteriorElement:
    """First-order operator: contraction of the gradient into phi."""
    return interior_product(f.gradient(x), cal.form)


def hessian_form(f: ScalarField, x, cal: Calibration) -> ExteriorElement:
    """Second-order operator: the field's exact Hessian extended into phi as
    a derivation."""
    return derivation_extend(f.hessian(x), cal.form)


def trace_check(f: ScalarField, x, plane, cal: Calibration):
    """Both sides of the plane-trace identity: the form-valued Hessian paired
    with the plane versus the sum of u.H.u over an orthonormal frame of it,
    H the field's Hessian at x.  Returns (lhs, rhs, gap)."""
    xi = plane.pvector()
    lhs = pairing(hessian_form(f, x, cal), xi)
    H = f.hessian(x)
    rhs = sum(float(u @ H @ u) for u in plane.frame)
    return lhs, rhs, abs(lhs - rhs)


def symbol(u, cal: Calibration) -> ExteriorElement:
    """The operator symbol at the covector u: u ^ (u -| phi)."""
    u = np.asarray(u, dtype=float)
    return wedge(ExteriorElement.from_vector(u),
                 interior_product(u, cal.form))


# ---------------------------------------------------------------------------
# plurisubharmonicity
# ---------------------------------------------------------------------------

@dataclass
class PshPoint:
    status: str                   # StrictlyPsh | Psh | NotPsh
    margin: float
    witness: object = None


_PSH_STATUS = {"Interior": "StrictlyPsh", "Boundary": "Psh",
               "Outside": "NotPsh"}


def psh_classify(f: ScalarField, points, cal: Calibration,
                 samples: PlaneSampleSet, tol=1e-8,
                 **extremum_opts) -> list:
    """Per point: the form-valued Hessian classified against the polar cone
    by `positivity_classify` (exact for Kaehler forms, which read no
    sample); Interior, Boundary and Outside read StrictlyPsh, Psh and
    NotPsh."""
    if len(samples) == 0 and kaehler_structure(cal.form) is None:
        raise ValueError("empty sample set")
    out = []
    for x in points:
        rep = positivity_classify(hessian_form(f, x, cal), cal, samples,
                                  tol=tol, **extremum_opts)
        status = _PSH_STATUS[rep.status]
        out.append(PshPoint(status, rep.margin,
                            rep.witness if status == "NotPsh" else None))
    return out


# ---------------------------------------------------------------------------
# pluriharmonic mod d
# ---------------------------------------------------------------------------

@dataclass
class ModDResidual:
    residual: float
    alpha_fit: ExteriorElement      # degree p-1
    sigma_fit: ExteriorElement      # degree p, annihilating the sampled span
    gradient_norm: float


def pluriharmonic_mod_d_residual(f: ScalarField, x, cal: Calibration,
                                 samples: PlaneSampleSet) -> ModDResidual:
    """Least-squares decomposition of the form-valued Hessian over
    df ^ Lambda^{p-1} plus the annihilator of the sampled plane span
    (`PlaneSampleSet.annihilator`, computed once per sample).

    With a vanishing gradient the fit degenerates to the pure annihilator
    projection (documented; the caller sees gradient_norm).
    """
    if len(samples) == 0:
        raise ValueError("empty sample set")
    perp = samples.annihilator()
    x = np.asarray(x, dtype=float)
    H = hessian_form(f, x, cal)
    H_vec = H.to_coeff_vector()
    g = f.gradient(x)
    pm1 = lex_indices(cal.n, cal.p - 1)
    # columns df ^ dx_J, then the annihilator; in C order, because the
    # rounding of A @ coef depends on the layout
    A = np.vstack([wedge_matrix(g, cal.n, cal.p), perp]).T.copy()
    coef, *_ = np.linalg.lstsq(A, H_vec, rcond=None)
    fit = A @ coef
    residual = float(np.linalg.norm(H_vec - fit))
    alpha = ExteriorElement(cal.n, cal.p - 1,
                            {idx: coef[k] for k, idx in enumerate(pm1)})
    sigma_vec = np.zeros_like(H_vec)
    for j in range(perp.shape[0]):
        sigma_vec += coef[len(pm1) + j] * perp[j]
    sigma = ExteriorElement.from_coeff_vector(cal.n, cal.p, sigma_vec,
                                              drop_tol=0.0)
    return ModDResidual(residual, alpha, sigma, float(np.linalg.norm(g)))


# ---------------------------------------------------------------------------
# level-set flatness
# ---------------------------------------------------------------------------

FLAT_STARTS = 8    # tangential phi-planes seeding each flatness extremum


@dataclass
class FlatReport:
    flat: bool
    worst_value: float
    worst_plane: object
    vacuous: bool
    exact: bool


def phi_flat_check(f: ScalarField, x, cal: Calibration, tol=1e-8,
                   seed=0) -> FlatReport:
    """Extremize the form-valued Hessian over phi-planes tangential to the
    level set of f through x.

    Those are the phi-planes inside W = grad f(x)^perp, so the check is
    `constrained_extremum` of the Hessian pulled back to W over phi
    restricted to W, seeded with the first FLAT_STARTS planes `grassmann`
    finds inside W (drawn, or ascended on phi|W).  It is exact
    (``exact=True``) when phi|W is a Kaehler form, as it is wherever a
    2-form or an (n-3)-form restricts to a calibration, and when the drawn
    planes are all one plane, whose Hessian value it then reports with no
    extremum.  Reports vacuous flatness when no tangential phi-plane
    exists, exact as `grassmann` says.  Raises when tol is negative or NaN.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be at least 0, got {tol}")
    x = np.asarray(x, dtype=float)
    g = f.gradient(x)
    gn = float(np.linalg.norm(g))
    if gn < 1e-12:
        raise ValueError("vanishing gradient: level set undefined at x")
    ghat = g / gn
    source = grassmann(cal, seed, ghat)
    if source.take is None:
        return FlatReport(True, 0.0, None, True, source.exact)
    V, values, _ = source.take(0, FLAT_STARTS)
    H = hessian_form(f, x, cal)
    rows = _pluecker(V)
    if source.exact and np.abs(rows - rows[0]).max() <= STRUCTURE_TOL:
        # every draw is one plane, so G(phi|W) is that plane
        value = float(H.to_coeff_vector() @ rows[0])
        return FlatReport(abs(value) <= tol, value, SimplePlane(V[0].T),
                          False, True)
    Q = hyperplane_basis(ghat)
    U = Q.T @ V
    restricted = Calibration(pullback(cal.form, Q), f"{cal.name}|W")
    starts = PlaneSampleSet(U, list(values), 0.0, len(U))
    H_w = pullback(H, Q)
    worst = max((constrained_extremum(H_w, restricted, starts, mode, seed=seed)
                 for mode in ("max", "min")), key=lambda r: abs(r.value))
    return FlatReport(abs(worst.value) <= tol, worst.value,
                      SimplePlane(worst.plane.frame @ Q.T), False,
                      worst.exact)


# ---------------------------------------------------------------------------
# normality of a calibration
# ---------------------------------------------------------------------------

MISMATCH_TOL = 1e-8    # projector distance above which a trial fails


def _stable_span_rows(source, level, to_w, batch, cap):
    """The p-vectors of the source's planes with phi >= level - 1e-9, in
    Lambda^p W through to_w when given, batch after batch of attempts from
    3000 on, until their rank has not grown for two batches or `cap`
    attempts are spent; returns the row matrix."""
    rows = []
    rank = 0
    stable = 0
    attempts = 0
    while attempts < cap and stable < 2:
        U, f, _ = source.take(3000 + attempts, batch)
        new = _pluecker(U[f >= level - 1e-9])
        rows.extend(new if to_w is None else new @ to_w)
        attempts += batch
        if rows:
            new_rank = np.linalg.matrix_rank(np.array(rows), tol=1e-8)
            stable = stable + 1 if new_rank == rank else 0
            rank = new_rank
    return np.array(rows)


@dataclass
class NormalityReport:
    normal: bool
    trials: int
    degenerate: int
    failures: list
    worst_mismatch: float


def normality_check(cal: Calibration, trials=50, seed=0) -> NormalityReport:
    """For random hyperplanes W, compare the annihilator of the restricted
    Grassmannian's span with the restriction of the full annihilator.

    Both spans are of the planes `grassmann` finds, in R^n and inside W:
    drawn from G(phi) when `phi_structure` parametrizes it, so that the
    comparison is of a theorem-derived span with the annihilator, with no
    ascent; else ascended to, on phi and on phi|W.  Trials with no
    phi-plane inside W are recorded as degenerate and excluded from the
    comparison; a trial fails at a mismatch above MISMATCH_TOL.
    """
    if trials < 1:
        raise ValueError(f"normality needs at least 1 trial, got {trials}")
    level = cal.claimed_comass
    full_rows = _stable_span_rows(grassmann(cal, seed), level, None, 24, 400)
    _, perp_basis = span_split(full_rows)
    failures = []
    degenerate = 0
    worst = 0.0
    for t in range(trials):
        rng = rng_stream(seed, 100 + t)
        u = rng.standard_normal(cal.n)
        u /= np.linalg.norm(u)
        Q = hyperplane_basis(u)                       # n x (n-1)
        to_w = compound(Q, cal.p)     # Lambda^p R^n -> Lambda^p W on rows
        source = grassmann(cal, seed + 7 * t, u)
        rows_w = np.empty(0) if source.take is None else \
            _stable_span_rows(source, level, to_w, 16, 240)
        if rows_w.size == 0:
            degenerate += 1
            continue
        _, perp_w = span_split(rows_w)                # Lambda(phi|_W)^perp
        # restriction to W of the full annihilator, inside Lambda^p W
        restr_basis, _ = span_split(perp_basis @ to_w)
        # compare the two subspaces by their orthogonal projectors
        d1, d2 = perp_w.shape[0], restr_basis.shape[0]
        dim_amb = perp_w.shape[1]
        P1 = perp_w.T @ perp_w if d1 else np.zeros((dim_amb, dim_amb))
        P2 = restr_basis.T @ restr_basis if d2 else np.zeros((dim_amb, dim_amb))
        mismatch = float(np.linalg.norm(P1 - P2, 2)) if dim_amb else 0.0
        worst = max(worst, mismatch)
        if mismatch > MISMATCH_TOL:
            failures.append({"u": u, "mismatch": mismatch,
                             "dims": (d1, d2)})
    return NormalityReport(not failures, trials, degenerate, failures, worst)
