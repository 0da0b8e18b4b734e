"""The differential-operator layer for constant calibrations on flat R^n:
the first-order contraction operator, the second-order form-valued Hessian,
plurisubharmonicity classification, pluriharmonic-mod-d residuals, level-set
flatness, normality of a calibration, and the operator symbol.

Everything is pointwise: smooth fields enter through gradient/Hessian
suppliers.  Grassmannian quantifiers run over (refined) plane samples, so
results are certified relative to the sampled surrogate of G(phi), with
these exceptions: cone queries on Kaehler forms are exact; normality on the
forms `grassmann.phi_structure` recognizes draws its planes from G(phi)
itself; and level-set flatness is one `constrained_extremum` on the
calibration restricted to the tangent hyperplane, exact when that
restriction is Kaehler (as for the coassociative form, and for a Kaehler
2-form restricted to the complex hyperplane of its tangential complex
lines) and best-found otherwise, or the Hessian's exact value on the one
plane `phi_structure` draws in the hyperplane when every draw is that
plane (Kaehler(2,1), Kaehler(3,2), quaternionic(2)); a vacuous answer is
exact when no plane is drawn there, when the restriction is zero, or when
its comass, found below one, is exact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .calibrations import Calibration
from .cones import LambdaSpan, lambda_span, positivity_classify
from .exterior import (ExteriorElement, SimplePlane, compound,
                       derivation_extend, interior_product, lex_indices,
                       pairing, wedge, wedge_matrix)
from .fields import ScalarField
from .grassmann import (STRUCTURE_TOL, FormEvaluator, PhiStructure,
                        PlaneSampleSet, _ascend_batch, _pluecker,
                        _random_frames, comass, constrained_extremum,
                        hyperplane_basis, kaehler_structure, phi_structure,
                        pullback, rng_stream, sample_grassmannian, span_split)


def d_phi(f: ScalarField, x, cal: Calibration) -> ExteriorElement:
    """First-order operator: contraction of the gradient into phi."""
    return interior_product(f.gradient(x), cal.form)


def hessian_form(f: ScalarField, x, cal: Calibration, cross_check=True,
                 check_tol=1e-3) -> ExteriorElement:
    """Second-order operator: the Hessian extended into phi as a derivation.

    For constant phi this factors through the exterior derivative of the
    first-order operator; a finite-difference version of that factorization
    is checked when cross_check is set and a warning raised on disagreement
    (which indicates step-size trouble in the field's suppliers).
    """
    x = np.asarray(x, dtype=float)
    H = f.hessian(x)
    out = derivation_extend(H, cal.form)
    if cross_check:
        h = f.h * max(1.0, float(np.abs(x).max()))
        fd = ExteriorElement.zero(cal.n, cal.p)
        for i in range(cal.n):
            e = np.zeros(cal.n)
            e[i] = h
            diff = d_phi(f, x + e, cal) - d_phi(f, x - e, cal)
            ei_form = ExteriorElement.from_vector(np.eye(cal.n)[i])
            fd = fd + wedge(ei_form, (1.0 / (2 * h)) * diff)
        gap = (out - fd).norm()
        scale = 1.0 + float(np.linalg.norm(H))
        if gap > check_tol * scale:
            warnings.warn(
                f"factorization cross-check gap {gap:.2e} exceeds "
                f"{check_tol:.0e}*(1+|Hess|); finite-difference step h={f.h} "
                "may be poorly scaled")
    return out


def trace_check(f: ScalarField, x, plane, cal: Calibration):
    """Both sides of the plane-trace identity: the form-valued Hessian paired
    with the plane versus the sum of second directional derivatives along an
    orthonormal frame.  Returns (lhs, rhs, gap)."""
    xi = plane.pvector()
    lhs = pairing(hessian_form(f, x, cal, cross_check=False), xi)
    rhs = sum(f.second_directional(x, u) for u in plane.frame)
    return lhs, rhs, abs(lhs - rhs)


def symbol(u, cal: Calibration) -> ExteriorElement:
    """The operator symbol at the covector u: u ^ (u -| phi)."""
    u = np.asarray(u, dtype=float)
    if cal.p == cal.n:
        return ExteriorElement.zero(cal.n, cal.p)
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
        rep = positivity_classify(hessian_form(f, x, cal, cross_check=False),
                                  cal, samples, tol=tol, **extremum_opts)
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
                                 samples: PlaneSampleSet = None,
                                 span: LambdaSpan = None) -> ModDResidual:
    """Least-squares decomposition of the form-valued Hessian over
    df ^ Lambda^{p-1} plus the annihilator of the sampled plane span.

    With a vanishing gradient the fit degenerates to the pure annihilator
    projection (documented; the caller sees gradient_norm).
    """
    if span is None:
        if samples is None:
            raise ValueError("need either samples or a precomputed span")
        span = lambda_span(samples)
    x = np.asarray(x, dtype=float)
    H = hessian_form(f, x, cal, cross_check=False)
    H_vec = H.to_coeff_vector()
    g = f.gradient(x)
    pm1 = lex_indices(cal.n, cal.p - 1)
    # columns df ^ dx_J, then the annihilator; in C order, because the
    # rounding of A @ coef depends on the layout
    A = np.vstack([wedge_matrix(g, cal.n, cal.p), span.perp]).T.copy()
    coef, *_ = np.linalg.lstsq(A, H_vec, rcond=None)
    fit = A @ coef
    residual = float(np.linalg.norm(H_vec - fit))
    alpha = ExteriorElement(cal.n, cal.p - 1,
                            {idx: coef[k] for k, idx in enumerate(pm1)})
    sigma_vec = np.zeros_like(H_vec)
    for j in range(span.perp.shape[0]):
        sigma_vec += coef[len(pm1) + j] * span.perp[j]
    sigma = ExteriorElement.from_coeff_vector(cal.n, cal.p, sigma_vec,
                                              drop_tol=0.0)
    return ModDResidual(residual, alpha, sigma, float(np.linalg.norm(g)))


# ---------------------------------------------------------------------------
# level-set flatness
# ---------------------------------------------------------------------------

FLAT_STARTS = 8    # tangential phi-planes seeding each flatness extremum
DEGENERATE_TOL = 1e-6     # restricted comass below 1 - this: no phi-plane
RESTRICTED_STARTS = 24    # ascent starts of an inexact restricted comass


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
    restricted to W, seeded with FLAT_STARTS planes inside W: drawn from
    `phi_structure` when it parametrizes G(phi), else sampled from the
    restricted calibration.  For a Kaehler 2-form with structure J those
    planes are the complex lines in span{g, Jg}^perp, and W is that complex
    hyperplane, on which phi is Kaehler again.  It is exact (``exact=True``)
    when phi|W is a Kaehler form, and when the drawn planes are all one
    plane, whose Hessian value it then reports with no extremum.  Reports
    vacuous flatness when no tangential phi-plane exists: an empty draw, or
    a restricted comass found below one; exact unless that comass is a
    best-found ascent value.
    """
    x = np.asarray(x, dtype=float)
    g = f.gradient(x)
    gn = float(np.linalg.norm(g))
    if gn < 1e-12:
        raise ValueError("vanishing gradient: level set undefined at x")
    ghat = g / gn
    Q = hyperplane_basis(ghat)
    H = hessian_form(f, x, cal, cross_check=False)
    structure = phi_structure(cal.form)
    if structure is None:
        restricted, vacuous_exact = _restricted_calibration(cal, Q, seed)
        if restricted is None:
            return FlatReport(True, 0.0, None, True, vacuous_exact)
        starts = sample_grassmannian(restricted, count=FLAT_STARTS, seed=seed)
    else:
        V = structure.draw(rng_stream(seed, 0), FLAT_STARTS, ghat)
        if not len(V):
            return FlatReport(True, 0.0, None, True, True)
        rows = _pluecker(V)
        if np.abs(rows - rows[0]).max() <= STRUCTURE_TOL:
            # every draw is one plane, so G(phi|W) is that plane
            value = float(H.to_coeff_vector() @ rows[0])
            return FlatReport(abs(value) <= tol, value, SimplePlane(V[0].T),
                              False, True)
        if structure.kind == "kaehler" and cal.p == 2:
            # the draws are complex lines in span{g, Jg}^perp
            Q = span_split(np.array([ghat, ghat @ structure.ops[0].T]))[1].T
        U = Q.T @ V
        restricted = Calibration(pullback(cal.form, Q), f"{cal.name}|W")
        starts = PlaneSampleSet([SimplePlane(Uk.T) for Uk in U],
                                [1.0] * len(U), 0.0, seed, len(U))
    H_w = pullback(H, Q)
    worst = max((constrained_extremum(H_w, restricted, starts, mode, seed=seed)
                 for mode in ("max", "min")), key=lambda r: abs(r.value))
    return FlatReport(abs(worst.value) <= tol, worst.value,
                      SimplePlane(worst.plane.frame @ Q.T), False,
                      worst.exact)


# ---------------------------------------------------------------------------
# normality of a calibration
# ---------------------------------------------------------------------------

def _stable_span_rows(rows_from, batch, cap, patience=2):
    """Collect rows_from(keys), batch after batch of stream keys, until the
    rank of the rows has not grown for `patience` batches or `cap` keys are
    spent; returns the row matrix."""
    rows = []
    rank = 0
    stable = 0
    attempts = 0
    while attempts < cap and stable < patience:
        rows.extend(rows_from(range(3000 + attempts, 3000 + attempts + batch)))
        attempts += batch
        if rows:
            new_rank = np.linalg.matrix_rank(np.array(rows), tol=1e-8)
            stable = stable + 1 if new_rank == rank else 0
            rank = new_rank
    return np.array(rows)


def _adaptive_span_rows(cal: Calibration, tol, seed, batch=24, cap=400,
                        patience=2):
    """Sample the phi-Grassmannian by ascent until the span of its
    p-vectors stops growing; returns the row matrix of sampled p-vectors."""
    ev = FormEvaluator(cal.form)

    def ascended(keys):
        Us, fs, _, _ = _ascend_batch(
            ev, _random_frames(cal.n, cal.p, seed, keys),
            gtol=1e-11, max_iter=400)
        return [ev.pvector_vec(U) for U in Us[fs >= cal.claimed_comass - tol]]
    return _stable_span_rows(ascended, batch, cap, patience)


def _drawn_span_rows(structure: PhiStructure, seed, normal=None, to_w=None,
                     batch=24, cap=400):
    """`_stable_span_rows` on p-vectors of planes drawn from G(phi), or
    from its planes inside normal^perp, mapped by to_w when given."""
    def drawn(keys):
        rows = _pluecker(structure.draw(rng_stream(seed, keys[0]), len(keys),
                                        normal))
        return rows if to_w is None else rows @ to_w
    return _stable_span_rows(drawn, batch, cap)


@dataclass
class NormalityReport:
    normal: bool
    trials: int
    degenerate: int
    failures: list
    worst_mismatch: float


def normality_check(cal: Calibration, trials=50, seed=0,
                    mismatch_tol=1e-8) -> NormalityReport:
    """For random hyperplanes W, compare the annihilator of the restricted
    Grassmannian's span with the restriction of the full annihilator.

    When `phi_structure` parametrizes G(phi), both spans come from planes
    drawn from it: the full span from G(phi), the restricted one from its
    planes inside W.  Then the comparison is of a theorem-derived span with
    the annihilator, with no ascent.  Otherwise both spans come from
    multistart ascent (`_adaptive_span_rows`), and a hyperplane where the
    restricted comass drops below 1 - DEGENERATE_TOL has an empty
    restricted Grassmannian.  Trials with no phi-plane inside W are
    recorded as degenerate and excluded from the comparison.
    """
    structure = phi_structure(cal.form)
    if structure is None:
        full_rows = _adaptive_span_rows(cal, tol=1e-9, seed=seed)
    else:
        full_rows = _drawn_span_rows(structure, seed)
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
        if structure is None:
            restricted = _restricted_calibration(cal, Q, seed + t)[0]
            rows_w = np.empty(0) if restricted is None else \
                _adaptive_span_rows(restricted, tol=1e-9, seed=seed + 7 * t,
                                    batch=16, cap=240)
        else:
            rows_w = _drawn_span_rows(structure, seed + 7 * t, u, to_w,
                                      batch=16, cap=240)
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
        if mismatch > mismatch_tol:
            failures.append({"u": u, "mismatch": mismatch,
                             "dims": (d1, d2)})
    return NormalityReport(not failures, trials, degenerate, failures, worst)


def _restricted_calibration(cal, Q, seed):
    """phi restricted to the hyperplane spanned by Q's columns, in its
    coordinates, as a calibration claiming its comass, and whether that
    comass is exact; the calibration is None when the comass is below
    1 - DEGENERATE_TOL, so that no phi-plane lies in the hyperplane (a zero
    restriction has comass zero exactly)."""
    phi_w = pullback(cal.form, Q)
    if phi_w.norm() == 0:
        return None, True
    cm = comass(phi_w, multistarts=RESTRICTED_STARTS, seed=seed)
    if cm.value < 1.0 - DEGENERATE_TOL:
        return None, cm.exact
    return Calibration(phi_w, f"{cal.name}|W",
                       claimed_comass=cm.value), cm.exact
