"""Optimization over Grassmannians: comass, sampling the phi-planes,
constrained extrema of forms over them, and variable-involvement reduction.

Planes are parametrized by orthonormal p-frames (columns of U); ascent
directions are projected to the Stiefel tangent space and steps retracted by
re-orthonormalization.  Values of a form on the frame's plane are Pluecker
minors dotted with the form's coefficient vector, so both evaluation and
gradients vectorize over the lexicographic basis.

Comass is exact in degrees 1, 2, n-2, n-1 and n, where the mathematics gives
a closed form (a vector norm, or the top singular value of a skew matrix,
through the Hodge star for n-2 and n-1).  In every other degree it is a
best-found lower bound with a multistart saturation heuristic, and no global
certificate is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibrations import Calibration
from .exterior import (ExteriorElement, SimplePlane, _lex_array, _stack_dets,
                       angular_distance, compound, hodge_star, interior_product,
                       lex_indices, lex_position)

DEFAULT_GTOL = 1e-12
DEDUP_ANGLE = 1e-3


def rng_stream(seed, *key):
    """Independent deterministic generator for (seed, key...)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + [int(k) for k in key]))


def random_frame(n, p, rng) -> np.ndarray:
    """Haar-ish random orthonormal frame, as an (n, p) column matrix."""
    q, r = np.linalg.qr(rng.standard_normal((n, p)))
    return q * np.sign(np.diag(r))[None, :]


class FormEvaluator:
    """Vectorized evaluation/gradient of U -> phi(col_1 ^ ... ^ col_p)."""

    def __init__(self, phi: ExteriorElement):
        self.n, self.p = phi.n, phi.p
        if self.p < 1:
            raise ValueError("FormEvaluator needs degree >= 1")
        self.phi_vec = phi.to_coeff_vector()
        self.rows_p = _lex_array(self.n, self.p)
        if self.p > 1:
            pm1 = lex_indices(self.n, self.p - 1)
            self.rows_pm1 = _lex_array(self.n, self.p - 1)
            pos = lex_position(self.n, self.p)
            M = np.zeros((self.n, len(pm1)))
            for col, J in enumerate(pm1):
                setJ = set(J)
                for i in range(1, self.n + 1):
                    if i in setJ:
                        continue
                    sign = (-1.0) ** sum(1 for j in J if j < i)
                    key = tuple(sorted(J + (i,)))
                    M[i - 1, col] = sign * self.phi_vec[pos[key]]
            self.contract = M
            self.keep_cols = [np.array([c for c in range(self.p) if c != k],
                                       dtype=int)
                              for k in range(self.p)]
        else:
            self.rows_pm1 = None
            self.contract = None

    def pvector_vec(self, U) -> np.ndarray:
        """Pluecker coordinate vector of the frame's unit p-vector."""
        if self.p == 1:
            return U[:, 0].copy()
        return _stack_dets(U[self.rows_p, :])

    def value(self, U) -> float:
        return float(self.phi_vec @ self.pvector_vec(U))

    def value_and_grad(self, U):
        if self.p == 1:
            return float(self.phi_vec @ U[:, 0]), self.phi_vec[:, None].copy()
        val = float(self.phi_vec @ self.pvector_vec(U))
        G = np.empty((self.n, self.p))
        for k in range(self.p):
            sub = U[self.rows_pm1[:, :, None], self.keep_cols[k][None, None, :]]
            eta = _stack_dets(sub)
            G[:, k] = ((-1.0) ** k) * (self.contract @ eta)
        return val, G


def _retract(U):
    p = U.shape[1]
    if p <= 3:
        # modified Gram-Schmidt keeps the orientation and beats QR on the
        # tiny frames used everywhere here
        Q = U.copy()
        for k in range(p):
            v = Q[:, k]
            for j in range(k):
                v = v - (Q[:, j] @ v) * Q[:, j]
            Q[:, k] = v / np.sqrt(v @ v)
        return Q
    q, r = np.linalg.qr(U)
    return q * np.sign(np.diag(r))[None, :]


def _tangent(U, G):
    UtG = U.T @ G
    return G - U @ ((UtG + UtG.T) / 2.0)


def _ascend(value_and_grad, U, gtol=DEFAULT_GTOL, max_iter=600, step0=0.2):
    """Projected-gradient ascent with backtracking; returns (U, f, gnorm, iters).

    Near a maximizer the Armijo test drowns in floating-point rounding, so a
    second stage drives the tangent-gradient norm down directly.
    """
    f, G = value_and_grad(U)
    step = step0
    it = 0
    while it < max_iter:
        it += 1
        T = _tangent(U, G)
        gnorm = float(np.sqrt((T * T).sum()))
        if gnorm <= gtol:
            return U, f, gnorm, it
        accepted = False
        for _ in range(50):
            if step * gnorm * gnorm < 1e-13 * max(1.0, abs(f)):
                break  # improvement below rounding: switch to stage 2
            U_new = _retract(U + step * T)
            f_new, G_new = value_and_grad(U_new)
            if f_new >= f + 1e-4 * step * gnorm * gnorm:
                U, f, G = U_new, f_new, G_new
                step = min(step * 1.8, 4.0)
                accepted = True
                break
            step *= 0.4
        if not accepted:
            break
    # stage 2: monotone gradient-norm descent with step halving
    T = _tangent(U, G)
    gnorm = float(np.sqrt((T * T).sum()))
    step = max(step, 1e-3)
    while it < max_iter and gnorm > gtol and step > 1e-8:
        it += 1
        U_new = _retract(U + step * T)
        f_new, G_new = value_and_grad(U_new)
        T_new = _tangent(U_new, G_new)
        g_new = float(np.sqrt((T_new * T_new).sum()))
        if g_new < gnorm:
            U, f, G, T, gnorm = U_new, f_new, G_new, T_new, g_new
        else:
            step *= 0.5
    return U, f, gnorm, it


@dataclass
class ComassResult:
    value: float
    plane: SimplePlane
    saturated: bool
    converged: int
    multistarts: int
    values: np.ndarray = field(repr=False, default=None)
    exact: bool = False


def skew_matrix(vec, n) -> np.ndarray:
    """Skew matrix A of a 2-form's lex coefficient vector, so that
    phi(u ^ v) = u^T A v."""
    A = np.zeros((n, n))
    for (i, j), v in zip(lex_indices(n, 2), vec):
        A[i - 1, j - 1] = v
        A[j - 1, i - 1] = -v
    return A


def top_singular_plane(A) -> np.ndarray:
    """Orthonormal (n, 2) frame (u, v) of the top singular pair of a skew
    matrix A.  Skewness makes u orthogonal to v with u^T A v = sigma_max,
    and A maps span(u, v) and its complement into themselves
    (Harvey-Lawson normal form)."""
    u, _, vt = np.linalg.svd(A)
    a, b = u[:, 0], vt[0]
    b = b - (a @ b) * a
    return np.column_stack([a, b / np.linalg.norm(b)])


def _top_plane(vec, n, p):
    """Orthonormal (n, p) frame maximizing a 1-form or 2-form given by its
    lex coefficient vector."""
    if p == 1:
        return (vec / np.linalg.norm(vec))[:, None]
    return top_singular_plane(skew_matrix(vec, n))


def _exact_frame(phi: ExteriorElement):
    """A maximizing frame of phi in the degrees with a closed form, else
    None.  For p = n-1 and n-2 it spans the orthogonal complement of the
    plane maximizing *phi; the orientation is fixed by the caller."""
    n, p = phi.n, phi.p
    if p < 1:
        return None
    if p == n:
        return np.eye(n)
    if p <= 2:
        return _top_plane(phi.to_coeff_vector(), n, p)
    if n - p <= 2:
        V = _top_plane(hodge_star(phi).to_coeff_vector(), n, n - p)
        q, _ = np.linalg.qr(V, mode="complete")
        return q[:, n - p:]
    return None


def comass(phi: ExteriorElement, multistarts=60, max_iter=600, tol=DEFAULT_GTOL,
           seed=0, step0=0.2) -> ComassResult:
    """Maximum of phi over unit simple p-vectors.

    In degrees 1, 2, n-2, n-1 and n the value is exact (``exact=True``,
    ``multistarts=0``): it is phi evaluated on the closed-form maximizing
    plane, so it is attained, and the ascent options are unused.  In every
    other degree it is the best value of a multistart ascent, a lower bound
    for the comass; saturation is flagged when the top starts agree to 1e-6.
    """
    if phi.norm() == 0.0:
        raise ValueError("comass of the zero form")
    U = _exact_frame(phi)
    if U is None:
        return _comass_ascent(phi, multistarts, max_iter, tol, seed, step0)
    value = FormEvaluator(phi).value(U)
    if value < 0.0:
        U[:, 0] = -U[:, 0]
        value = -value
    return ComassResult(value, SimplePlane(U.T), True, 0, 0, np.empty(0),
                        exact=True)


def _comass_ascent(phi, multistarts, max_iter, tol, seed, step0):
    """Best-found maximum of phi by multistart Stiefel ascent."""
    ev = FormEvaluator(phi)
    best_val, best_U = -np.inf, None
    vals = np.empty(multistarts)
    converged = 0
    for k in range(multistarts):
        rng = rng_stream(seed, k)
        U0 = random_frame(ev.n, ev.p, rng)
        U, f, g, _ = _ascend(ev.value_and_grad, U0, gtol=tol,
                             max_iter=max_iter, step0=step0)
        vals[k] = f
        if g <= max(tol, 1e-9):
            converged += 1
        if f > best_val:
            best_val, best_U = f, U
    topk = np.sort(vals)[-min(5, multistarts):]
    saturated = bool(topk.max() - topk.min() < 1e-6)
    return ComassResult(best_val, SimplePlane(best_U.T), saturated,
                        converged, multistarts, vals)


def polish_plane(phi: ExteriorElement, plane: SimplePlane, gtol=1e-13,
                 max_iter=300) -> tuple[SimplePlane, float]:
    """Re-converge a plane onto the maximizer manifold of phi."""
    ev = FormEvaluator(phi)
    U, f, _, _ = _ascend(ev.value_and_grad, plane.frame.T.copy(),
                         gtol=gtol, max_iter=max_iter, step0=0.05)
    return SimplePlane(U.T), f


# ---------------------------------------------------------------------------
# sampling the phi-Grassmannian
# ---------------------------------------------------------------------------

@dataclass
class PlaneSampleSet:
    """Finite surrogate for the phi-Grassmannian."""
    planes: list
    values: list
    tolerance: float
    seed: int
    multistart_count: int
    dedup_angle: float = DEDUP_ANGLE
    requested: int = 0
    calibration: str = ""
    exhausted: bool = False

    def __len__(self):
        return len(self.planes)

    def pvectors(self) -> np.ndarray:
        """Rows of Pluecker coefficient vectors, one per plane."""
        return np.array([pl.pvector().to_coeff_vector() for pl in self.planes])

    def frames(self) -> np.ndarray:
        return np.array([pl.frame for pl in self.planes])


def _is_duplicate(plane, kept, dedup_angle):
    for other in kept:
        theta, oriented = angular_distance(plane, other)
        if oriented and theta <= dedup_angle:
            return True
    return False


def sample_grassmannian(cal: Calibration, tol=1e-6, count=50, seed=0,
                        dedup_angle=DEDUP_ANGLE, max_attempts=None,
                        gtol=DEFAULT_GTOL, max_iter=600) -> PlaneSampleSet:
    """Collect deduplicated local maximizers with phi(xi) >= 1 - tol.

    Raises if the best value found contradicts the claimed comass by more
    than 1e-4 in either direction (comass confirmation failure).
    """
    phi = cal.form
    ev = FormEvaluator(phi)
    if max_attempts is None:
        max_attempts = max(8 * count, 160)
    kept, values = [], []
    best = -np.inf
    attempts = 0
    for k in range(max_attempts):
        attempts += 1
        rng = rng_stream(seed, k)
        U0 = random_frame(ev.n, ev.p, rng)
        U, f, g, _ = _ascend(ev.value_and_grad, U0, gtol=gtol,
                             max_iter=max_iter)
        best = max(best, f)
        if f > cal.claimed_comass + 1e-4:
            raise ValueError(
                f"comass confirmation failure: found phi(xi) = {f:.8f} above "
                f"claimed comass {cal.claimed_comass}")
        if f < cal.claimed_comass - tol:
            continue
        plane = SimplePlane(U.T)
        if _is_duplicate(plane, kept, dedup_angle):
            continue
        kept.append(plane)
        values.append(f)
        if len(kept) >= count:
            break
    if best < cal.claimed_comass - 1e-4:
        raise ValueError(
            f"comass confirmation failure: best value {best:.8f} never "
            f"reached claimed comass {cal.claimed_comass}")
    return PlaneSampleSet(kept, values, tol, seed, attempts,
                          dedup_angle=dedup_angle, requested=count,
                          calibration=cal.name,
                          exhausted=len(kept) < count)


def random_plane_set(n, p, count=80, seed=0) -> PlaneSampleSet:
    """Uniform-ish sample of the full Grassmannian G(p, n)."""
    planes = []
    for k in range(count):
        rng = rng_stream(seed, 9000 + k)
        planes.append(SimplePlane(random_frame(n, p, rng).T))
    return PlaneSampleSet(planes, [0.0] * count, tolerance=np.inf, seed=seed,
                          multistart_count=count, requested=count,
                          calibration=f"G({p},{n})")


# ---------------------------------------------------------------------------
# constrained extrema over G(phi)
# ---------------------------------------------------------------------------

@dataclass
class ExtremumResult:
    value: float
    plane: SimplePlane
    phi_value: float
    mode: str


def constrained_extremum(alpha: ExteriorElement, cal: Calibration,
                         samples: PlaneSampleSet, mode: str,
                         rho_schedule=(1e3, 1e5, 1e7),
                         extra_starts=6, seed=1, gtol=1e-11,
                         max_iter=250, starts_limit=None) -> ExtremumResult:
    """Extremize alpha over the phi-Grassmannian by an increasing-penalty
    scheme, evaluating the result on a re-polished phi-plane."""
    if len(samples) == 0:
        raise ValueError("empty sample set")
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    sgn = 1.0 if mode == "max" else -1.0
    ev_a = FormEvaluator(alpha)
    ev_phi = FormEvaluator(cal.form)

    starts = [pl.frame.T.copy() for pl in samples.planes]
    if starts_limit is not None and len(starts) > starts_limit:
        scores = [sgn * ev_a.value(U) for U in starts]
        order = np.argsort(scores)[::-1][:starts_limit]
        starts = [starts[i] for i in order]
    for k in range(extra_starts):
        rng = rng_stream(seed, 500 + k)
        starts.append(random_frame(ev_phi.n, ev_phi.p, rng))

    feas_tol = max(10.0 * samples.tolerance, 1e-6)
    if not np.isfinite(feas_tol):
        feas_tol = 1e-6

    def polish(U):
        return _ascend(ev_phi.value_and_grad, U, gtol=1e-13, max_iter=60,
                       step0=0.05)[:2]

    # phase 1: the penalty ladder on every start
    candidates = []
    for U in starts:
        for rho in rho_schedule:
            def vg(U, rho=rho):
                fa, Ga = ev_a.value_and_grad(U)
                fp, Gp = ev_phi.value_and_grad(U)
                return sgn * fa + rho * (fp - 1.0), sgn * Ga + rho * Gp
            U, _, _, _ = _ascend(vg, U, gtol=gtol, max_iter=max_iter)
        U, fphi = polish(U)
        if fphi < 1.0 - feas_tol:
            continue  # stranded off G(phi), e.g. on a reversed component
        candidates.append((sgn * ev_a.value(U), U, fphi))
    if not candidates:
        raise RuntimeError("no penalty start landed on the phi-Grassmannian")
    candidates.sort(key=lambda c: -c[0])

    # phase 2: refine the leading candidates tangentially; a projected
    # alpha-step with the phi-polish as retraction sharpens the stiff
    # high-rho endgame
    best_val = -np.inf if mode == "max" else np.inf
    best_plane, best_phi = None, None
    for _, U, fphi in candidates[:3]:
        val = ev_a.value(U)
        step = 0.05
        for _ in range(150):
            if step < 1e-10:
                break
            _, G = ev_a.value_and_grad(U)
            T = _tangent(U, sgn * G)
            if float(np.sqrt((T * T).sum())) < 1e-13:
                break
            U_try, fphi_try = polish(_retract(U + step * T))
            val_try = ev_a.value(U_try)
            if sgn * (val_try - val) > 0 and fphi_try >= 1.0 - feas_tol:
                U, val, fphi = U_try, val_try, fphi_try
                step = min(step * 1.4, 0.5)
            else:
                step *= 0.5
        if (mode == "max" and val > best_val) or (mode == "min" and val < best_val):
            best_val, best_plane, best_phi = val, SimplePlane(U.T), fphi
    return ExtremumResult(best_val, best_plane, best_phi, mode)


# ---------------------------------------------------------------------------
# pullbacks and the variable-involvement reduction
# ---------------------------------------------------------------------------

def pullback(phi: ExteriorElement, Q) -> ExteriorElement:
    """Pull phi back along the linear map R^d -> R^n with matrix Q (n x d)."""
    Q = np.asarray(Q, dtype=float)
    n, d = Q.shape
    if n != phi.n:
        raise ValueError("pullback dimension mismatch")
    if phi.p > d:
        return ExteriorElement.zero(d, min(phi.p, d))
    return ExteriorElement.from_coeff_vector(
        d, phi.p, phi.to_coeff_vector() @ compound(Q, phi.p))


def span_split(rows, sv_cutoff=1e-8):
    """Orthonormal bases (span, perp) of the row space of ``rows`` and of its
    orthogonal complement, splitting singular values at sv_cutoff relative to
    the largest."""
    _, s, vt = np.linalg.svd(rows, full_matrices=True)
    d = int((s > sv_cutoff * (s[0] if s.size else 1.0)).sum())
    return vt[:d], vt[d:]


def hyperplane_basis(u) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to u,
    returned as an (n, n-1) column matrix."""
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    n = u.size
    M = np.column_stack([u, np.eye(n)])
    q, r = np.linalg.qr(M)
    q = q * np.sign(np.diag(r)[:n])[None, :]
    return q[:, 1:n]


@dataclass
class ReduceResult:
    W: np.ndarray            # (d, n) rows: orthonormal basis of the span
    psi: ExteriorElement     # phi restricted to W, in W coordinates
    elliptic: bool
    witness: np.ndarray | None
    witness_residual: float


def reduce_calibration(cal: Calibration, samples: PlaneSampleSet,
                       sv_cutoff=1e-8) -> ReduceResult:
    """Span of the sampled plane spans, the restricted form, and ellipticity.

    The caller is responsible for the samples being representative of the
    whole phi-Grassmannian; the reduction inherits any sampling gap.
    """
    if len(samples) == 0:
        raise ValueError("empty sample set")
    W, perp = span_split(np.vstack([pl.frame for pl in samples.planes]),
                         sv_cutoff)
    psi = pullback(cal.form, W.T)
    elliptic = len(W) == cal.n
    witness = None
    residual = 0.0
    if not elliptic:
        witness = perp[-1]
        residual = max(interior_product(witness, pl.pvector()).norm()
                       for pl in samples.planes)
    return ReduceResult(W, psi, elliptic, witness, residual)
