"""Optimization over Grassmannians: comass, sampling the phi-planes,
constrained extrema of forms over them, and variable-involvement reduction.

Planes are parametrized by orthonormal p-frames (columns of U); ascent
directions are projected to the Stiefel tangent space and steps retracted by
re-orthonormalization.  Values of a form on the frame's plane are Pluecker
minors dotted with the form's coefficient vector, so both evaluation and
gradients vectorize over the lexicographic basis.  The ascent takes
projected-gradient steps with backtracking, and a safeguarded Riemannian
Newton step wherever the Hessian on the Grassmannian is negative
semidefinite; that Hessian is the form on the frame with two columns
replaced, read off the (p-2)-minors of the others.

Comass is exact in degrees 1, 2, n-2, n-1 and n, where the mathematics gives
a closed form (a vector norm, or the top singular value of a skew matrix,
through the Hodge star for n-2 and n-1), and on the Kaehler, special
Lagrangian, associative, coassociative, Cayley and quaternionic forms that
`phi_structure` recognizes, whose defining identity proves comass one; there
it is attained on a plane drawn from G(phi).  Every degree-2 or codegree-2
calibration is Kaehler on its top singular block E, whose complex lines
are G(phi).  On every other form comass is a best-found lower bound with a
multistart saturation heuristic, and no global certificate is claimed.
Every phi-plane, of R^n or inside a hyperplane, comes from one source,
`grassmann`: drawn from G(phi) on those forms (``exact=True``), elsewhere a
local maximizer of a multistart ascent; a sample is the distinct planes it
gives, held as one stack of frames.  Constrained extrema over G(phi) are
exact on Kaehler forms (one eigendecomposition in the coordinates of E),
else best-found.  The structure is detected once per form and kept, so
every route that asks for it (`kaehler_structure` too) reads the same one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .calibrations import (Calibration, catalogue, complex_structure,
                           quaternionic_structure)
from .exterior import (DROP_TOL, ExteriorElement, SimplePlane, _pluecker,
                       _sort_sign, compound, contraction_matrix, hodge_star,
                       interior_product)

DEFAULT_GTOL = 1e-12
DEDUP_ANGLE = 1e-3
NEWTON_TOL = 1e-10


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
        if self.p > 1:
            # column k of the gradient is (-1)^k M @ (the (p-1)-minors of
            # U without column k), M the contraction matrix of phi
            self.contract_t = contraction_matrix(self.phi_vec, phi.n, phi.p).T
            self.signs = ((-1.0) ** np.arange(self.p))[:, None]
            # row k: the columns of a frame other than k
            self.keep = np.array([[c for c in range(self.p) if c != k]
                                  for k in range(self.p)], dtype=int)

    def value(self, U) -> float:
        return float(self.phi_vec @ _pluecker(U))

    def value_and_grad(self, U):
        """phi on the frame's plane and its gradient in the frame's entries.

        U is one (n, p) frame, giving (float, (n, p) array), or an (S, n, p)
        stack, giving ((S,) array, (S, n, p) array).  The value is read off
        the gradient: phi is linear in the first column, so
        phi(U) = sum_i U[i, 0] G[i, 0].
        """
        Us = U[None] if U.ndim == 2 else U
        if self.p == 1:
            G = np.repeat(self.phi_vec[None, :, None], len(Us), axis=0)
        else:
            # C order: the product's bits depend on the operand's layout
            eta = np.ascontiguousarray(
                _pluecker(Us[:, :, self.keep].transpose(0, 2, 1, 3)))
            G = ((eta @ self.contract_t) * self.signs).transpose(0, 2, 1)
        # stacked matmuls, so that a frame gets the same bits in any stack
        f = (Us[:, None, :, 0] @ G[:, :, :1])[:, 0, 0]
        if U.ndim == 2:
            return float(f[0]), G[0]
        return f, G

    @functools.cached_property
    def _pair_terms(self):
        """The column pairs b < c of a frame, the other p - 2 columns of
        each, the sign of the permutation (b, c, others), and the tensor
        K with K[L, i n + j] = phi(e_i ^ e_j ^ e_L), L a lex (p-2)-tuple."""
        pairs = np.array(list(itertools.combinations(range(self.p), 2)))
        rest = np.array([[k for k in range(self.p) if k not in bc]
                         for bc in pairs], dtype=int).reshape(len(pairs), -1)
        sign = _sort_sign(np.hstack([pairs, rest]))[1]
        K = contraction_matrix(contraction_matrix(
            self.phi_vec, self.n, self.p), self.n, self.p - 1)
        return pairs.T, rest, sign, K.reshape(self.n * self.n, -1).T

    def hessian(self, U, Q):
        """Riemannian Hessians on the Grassmannian at the frames of an
        (S, n, p) stack, in orthonormal bases Q (S, n, m) of their planes'
        complements: an (S, p m, p m) stack with entry ((b, a), (c, d)) for
        the directions Q[:, a] in column b and Q[:, d] in column c.

        As U^T grad = phi(U) I, the entry is phi on U with columns b and c
        replaced by those vectors when b != c, and -phi(U) delta_ad when
        b = c (Absil-Mahony-Sepulchre, Optimization Algorithms on Matrix
        Manifolds, 2008, 5.5 and 6.2).  phi with x, y in columns b, c is
        sign x^T X y, X the skew matrix of phi contracted with the (p-2)-vector
        of the other columns.
        """
        S, n, p = U.shape
        m = Q.shape[2]
        H = np.zeros((S, p, m, p, m))
        if p == 1:
            f = U[:, :, 0] @ self.phi_vec
        else:
            (b, c), rest, sign, K = self._pair_terms
            X = (_pluecker(U[:, :, rest].transpose(0, 2, 1, 3)) @ K).reshape(
                S, len(sign), n, n)
            # the first pair is (0, 1), with sign +1
            f = (U[:, None, :, 0] @ X[:, 0] @ U[:, :, 1:2])[:, 0, 0]
            B = sign[:, None, None, None] * (
                Q.transpose(0, 2, 1)[:, None] @ X @ Q[:, None]).transpose(
                    1, 0, 2, 3)
            H[:, b, :, c] = B
            H[:, c, :, b] = -B      # X is skew, so block (c, b) is B^T = -B
        H = H.reshape(S, p * m, p * m)
        H.reshape(S, -1)[:, ::p * m + 1] = -f[:, None]
        return H


def _fnorm(T):
    """Frobenius norm of every matrix of a stack."""
    return np.sqrt((T * T).sum(axis=(1, 2)))


def _retract(U):
    """Re-orthonormalize every frame of an (S, n, p) stack, keeping its
    orientation."""
    p = U.shape[-1]
    if p <= 3:
        # modified Gram-Schmidt beats QR on the tiny frames used here; the
        # (S, 1, n) @ (S, n, 1) products sum as the dot of one pair would
        Q = np.empty_like(U)
        for k in range(p):
            v = U[:, :, k:k + 1]
            for j in range(k):
                q = Q[:, :, j:j + 1]
                v = v - (q.transpose(0, 2, 1) @ v) * q
            Q[:, :, k:k + 1] = v / np.sqrt(v.transpose(0, 2, 1) @ v)
        return Q
    q, r = np.linalg.qr(U)
    return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]


def _tangent(U, G):
    """Projection of G onto the Stiefel tangent space at U, frame by frame."""
    UtG = U.transpose(0, 2, 1) @ G
    return G - U @ ((UtG + UtG.transpose(0, 2, 1)) / 2.0)


def _newton_steps(ev, U, T):
    """Riemannian Newton steps on the Grassmannian at the frames of an
    (S, n, p) stack with tangent gradients T: which frames have a negative
    semidefinite Hessian, and the (S, n, p) steps.  The step is taken in
    the eigen-directions of clearly negative curvature only; curvature
    within NEWTON_TOL of zero, relative to the largest, is dropped, so a
    maximizer manifold's own directions are left alone."""
    S, n, p = U.shape
    Q = np.linalg.qr(U, mode="complete")[0][:, :, p:]
    lam, V = np.linalg.eigh(ev.hessian(U, Q))
    lead = np.abs(lam).max(axis=1, initial=0.0)
    tol = NEWTON_TOL * lead[:, None]
    coef = V.transpose(0, 2, 1) @ (T.transpose(0, 2, 1) @ Q).reshape(S, -1, 1)
    coef = np.divide(coef, -lam[:, :, None], out=np.zeros_like(coef),
                     where=(lam < -tol)[:, :, None])
    A = (V @ coef).reshape(S, p, -1)
    # a Hessian that vanishes, or has no entries at p = n, offers no step
    nsd = (lam <= tol).all(axis=1) & (lead > 0.0)
    return nsd, Q @ A.transpose(0, 2, 1)


def _ascend_batch(ev, U, gtol=DEFAULT_GTOL, max_iter=600, step0=0.2):
    """Safeguarded Riemannian Newton ascent, with projected-gradient steps
    and backtracking as the fallback, from every frame of an (S, n, p)
    stack; returns per-start arrays (U, f, gnorm, iters).

    ev maps an (S', n, p) stack to ((S',) values, gradients) by
    ``ev.value_and_grad`` and gives Riemannian Hessians on the Grassmannian
    by ``ev.hessian(U, Q)``, as `FormEvaluator` does.  Every start runs its
    own line search, with its own step, backtracking count, stage and
    iteration cap; each round evaluates one trial frame for every start
    still running, in one call on the stack of trials, and a start that
    finishes leaves the stack.  Near a maximizer the Armijo test drowns in
    floating-point rounding, so a second stage drives the tangent-gradient
    norm down directly.

    A start whose frame has just moved, and whose Hessian there is negative
    semidefinite, first tries the eigenvalue-truncated Newton step
    (`_newton_steps`).  The trial is kept only if it lowers the
    tangent-gradient norm without lowering the value beyond rounding; kept,
    it counts as an iteration.  Otherwise the start takes its gradient
    step, with the step length and backtracking count it had, and computes
    no Hessian again until its gradient norm has halved.
    """
    U = np.array(U, dtype=float)
    S = len(U)
    out = (np.empty_like(U), np.empty(S), np.empty(S), np.empty(S, int))
    idx = np.arange(S)
    f, G = ev.value_and_grad(U)
    T = _tangent(U, G)
    g = _fnorm(T)
    step = np.full(S, float(step0))
    it = np.zeros(S, int)
    backtracks = np.zeros(S, int)   # rejected trials in this outer iteration
    stage2 = np.zeros(S, bool)
    accept = np.ones(S, bool)       # the first outer iteration starts now
    recheck = np.full(S, np.inf)    # g at which to try a Newton step again
    while len(idx):
        # settle what needs no evaluation: an accepted stage-1 start begins
        # an outer iteration or stops; a stage-1 start whose improvement
        # would be below rounding, or that ran out of backtracking, enters
        # stage 2; a stage-2 start continues or stops.  In the common round
        # none of this happens and accepted starts just count an iteration.
        tiny = step * g * g < 1e-13 * np.maximum(1.0, np.abs(f))
        if not np.count_nonzero(stage2 | tiny | (g <= gtol)
                                | (it >= max_iter) | (backtracks >= 50)):
            it += accept
        else:
            outer = accept & ~stage2
            go = outer & (it < max_iter)
            it += go
            done = go & (g <= gtol)
            enter2 = (outer & ~go) | (backtracks >= 50) | (
                tiny & ~(stage2 | done))
            step = np.where(enter2, np.maximum(step, 1e-3), step)
            stage2 = stage2 | enter2
            more = stage2 & (it < max_iter) & (g > gtol) & (step > 1e-8)
            it += more
            done |= stage2 & ~more
            if np.count_nonzero(done):
                for o, a in zip(out, (U, f, g, it)):
                    o[idx[done]] = a[done]
                live = ~done
                (idx, U, f, G, T, g, step, it, backtracks, stage2, accept,
                 recheck) = (a[live] for a in (idx, U, f, G, T, g, step, it,
                                               backtracks, stage2, accept,
                                               recheck))
                if not len(idx):
                    break
        # one trial per running start: the Newton step where a frame that
        # just moved allows one, else the gradient step.  Where the Hessian
        # refused or the Newton trial failed, the next try waits for the
        # gradient norm to halve
        D = step[:, None, None] * T
        newton = np.zeros(len(idx), bool)
        moved = np.flatnonzero(accept & (g <= recheck))
        if moved.size:
            ok, D_newton = _newton_steps(ev, U[moved], T[moved])
            newton[moved[ok]] = True
            D[moved[ok]] = D_newton[ok]
            recheck[moved[~ok]] = g[moved[~ok]] / 2.0
        U_try = _retract(U + D)
        f_try, G_try = ev.value_and_grad(U_try)
        T_try = _tangent(U_try, G_try)
        g_try = _fnorm(T_try)
        accept = f_try >= f + 1e-4 * step * g * g
        step_next = np.where(accept, np.minimum(step * 1.8, 4.0), step * 0.4)
        if np.count_nonzero(stage2):
            accept = np.where(stage2, g_try < g, accept)
            step_next = np.where(stage2, np.where(accept, step, step * 0.5),
                                 step_next)
        if moved.size:
            accept = np.where(newton, (g_try < g) & (
                f_try >= f - 1e-13 * np.maximum(1.0, np.abs(f))), accept)
            step_next = np.where(newton, step, step_next)
            recheck = np.where(newton & ~accept, g / 2.0, recheck)
        step = step_next
        backtracks = np.where(accept | stage2 | newton, 0, backtracks + 1)
        accepted = np.count_nonzero(accept)
        if accepted == len(accept):
            U, G, T, f, g = U_try, G_try, T_try, f_try, g_try
        elif accepted:
            a3 = accept[:, None, None]
            U = np.where(a3, U_try, U)
            G = np.where(a3, G_try, G)
            T = np.where(a3, T_try, T)
            f = np.where(accept, f_try, f)
            g = np.where(accept, g_try, g)
    return out


@dataclass
class ComassResult:
    value: float
    plane: SimplePlane
    saturated: bool
    converged: int
    multistarts: int
    values: np.ndarray = field(repr=False, default=None)
    exact: bool = False
    capped: int = 0     # starts stopped by max_iter short of convergence


def _top_plane(vec, n, p):
    """Orthonormal (n, p) frame maximizing a 1-form or 2-form given by its
    lex coefficient vector; for a 2-form, the top singular pair (u, v) of
    its skew matrix A, orthogonal as A is skew, with u^T A v = sigma_max."""
    if p == 1:
        return (vec / np.linalg.norm(vec))[:, None]
    u, _, vt = np.linalg.svd(contraction_matrix(vec, n, 2))
    a, b = u[:, 0], vt[0]
    b = b - (a @ b) * a
    return np.column_stack([a, b / np.linalg.norm(b)])


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
           seed=0) -> ComassResult:
    """Maximum of phi over unit simple p-vectors.

    In degrees 1, 2, n-2, n-1 and n, and on the forms `phi_structure`
    recognizes, the value is exact (``exact=True``, ``multistarts=0``): it
    is phi evaluated on the closed-form maximizing plane, or on a plane
    drawn from G(phi), so it is attained, and the ascent options are
    unused.  On every other form it is the best value of a multistart
    ascent, a lower bound for the comass; saturation is flagged when the
    top starts agree to 1e-6.  Raises when multistarts or max_iter is
    below 1, or tol is negative or NaN, on every route.
    """
    if multistarts < 1:
        raise ValueError(f"multistarts must be at least 1, got {multistarts}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not tol >= 0:
        raise ValueError(f"tol must be at least 0, got {tol}")
    if phi.norm() == 0.0:
        raise ValueError("comass of the zero form")
    U = _exact_frame(phi)
    if U is None:
        structure = phi_structure(phi)
        if structure is None:
            return _comass_ascent(phi, multistarts, max_iter, tol, seed)
        U = structure.draw(rng_stream(seed, 0), 1)[0]
    value = FormEvaluator(phi).value(U)
    if value < 0.0:
        U[:, 0] = -U[:, 0]
        value = -value
    return ComassResult(value, SimplePlane(U.T), True, 0, 0, np.empty(0),
                        exact=True)


def _random_frames(n, p, seed, keys) -> np.ndarray:
    """(len(keys), n, p) stack of the frames random_frame draws from the
    streams (seed, key)."""
    return np.array([random_frame(n, p, rng_stream(seed, k))
                     for k in keys]).reshape(-1, n, p)


def _capped(g, iters, gtol, max_iter):
    """Which starts stopped at max_iter short of convergence."""
    return (iters >= max_iter) & (g > max(gtol, 1e-9))


def _comass_ascent(phi, multistarts, max_iter, tol, seed):
    """Best-found maximum of phi by multistart Stiefel ascent."""
    ev = FormEvaluator(phi)
    U, vals, g, iters = _ascend_batch(
        ev, _random_frames(ev.n, ev.p, seed, range(multistarts)),
        gtol=tol, max_iter=max_iter)
    best = int(np.argmax(vals))
    topk = np.sort(vals)[-min(5, multistarts):]
    saturated = bool(topk.max() - topk.min() < 1e-6)
    return ComassResult(float(vals[best]), SimplePlane(U[best].T), saturated,
                        int((g <= max(tol, 1e-9)).sum()), multistarts, vals,
                        capped=int(_capped(g, iters, tol, max_iter).sum()))


def polish_plane(phi: ExteriorElement,
                 plane: SimplePlane) -> tuple[SimplePlane, float]:
    """Re-converge a plane onto the maximizer manifold of phi."""
    ev = FormEvaluator(phi)
    U, f, _, _ = _ascend_batch(ev, plane.frame.T[None],
                               gtol=1e-13, max_iter=300, step0=0.05)
    return SimplePlane(U[0].T), float(f[0])


# ---------------------------------------------------------------------------
# sampling the phi-Grassmannian
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PlaneSampleSet:
    """Finite surrogate for the phi-Grassmannian: one read-only (k, n, p)
    stack of orthonormal column frames.  The plane views, the Pluecker rows
    and the annihilator of their span are computed from it once."""
    frames: np.ndarray
    values: list
    tolerance: float
    multistart_count: int
    exhausted: bool = False
    capped: int = 0     # attempts stopped by max_iter short of convergence
    exact: bool = False     # planes drawn from G(phi), not ascended to

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=float)
        self.frames.flags.writeable = False

    def __len__(self):
        return len(self.frames)

    @functools.cached_property
    def planes(self) -> tuple:
        """The planes as `SimplePlane` views of the frames."""
        return tuple(SimplePlane(U.T) for U in self.frames)

    @functools.cached_property
    def _pvectors(self):
        rows = _pluecker(self.frames)
        rows = np.where(np.abs(rows) > DROP_TOL, rows, 0.0)
        rows.flags.writeable = False
        return rows

    def pvectors(self) -> np.ndarray:
        """Read-only rows of Pluecker coefficient vectors, one per plane,
        masked as `ExteriorElement.from_coeff_vector` masks."""
        return self._pvectors

    @functools.cached_property
    def _annihilator(self):
        perp = span_split(self.pvectors())[1]
        perp.flags.writeable = False
        return perp

    def annihilator(self) -> np.ndarray:
        """Read-only orthonormal rows spanning the complement of the span of
        the planes' p-vectors."""
        return self._annihilator


def _is_duplicate(U, kept, dedup_angle):
    """Whether the plane of the (n, p) frame U lies within dedup_angle of a
    plane of the (k, n, p) stack kept and has its orientation.  The largest
    principal angle is arccos of the least singular value of U^T V, and for
    orthonormal frames det(U^T V) is the pairing of the two p-vectors."""
    M = U.T @ kept
    theta = np.arccos(np.clip(np.linalg.svd(M, compute_uv=False)[:, -1],
                              -1.0, 1.0))
    return bool(np.any((theta <= dedup_angle) & (np.linalg.det(M) > 0.0)))


SAMPLE_MAX_ITER = 600     # ascent iterations of one sampling attempt
DEGENERATE_TOL = 1e-6     # restricted comass below 1 - this: no phi-plane
RESTRICTED_STARTS = 24    # ascent starts of an inexact restricted comass


@dataclass
class PlaneSource:
    """The phi-planes `grassmann` finds.  take(start, size) gives the
    (size, n, p) frames in R^n, the phi-values and the capped flags of
    attempts start, ..., start + size - 1; it is None when no phi-plane lies
    in the hyperplane.  exact: the planes are drawn from G(phi), or it is
    exact that there are none.  single: G(phi) is one plane, so every
    attempt gives it."""
    take: object
    exact: bool
    single: bool = False


def grassmann(cal: Calibration, seed, normal=None) -> PlaneSource:
    """The one source of phi-planes: of G(phi), or with a normal of the
    phi-planes inside the hyperplane normal^perp.

    On the forms `phi_structure` recognizes the planes are drawn from the
    streams (seed, start) by `PhiStructure.draw`; on every other form they
    are ascended to (`_ascent_source`).  No p-plane lies in a hyperplane of
    R^p, and on a structure none lies in the hyperplanes it does not meet
    (`PhiStructure.meets`)."""
    if normal is not None and cal.p == cal.n:
        return PlaneSource(None, True)
    structure = phi_structure(cal.form)
    if structure is None:
        return _ascent_source(cal, seed, normal)
    if normal is not None and not structure.meets(normal):
        return PlaneSource(None, True)

    def draw(start, size):
        U, values = structure._draw(rng_stream(seed, start), size, normal)
        return U, values, np.zeros(size, dtype=bool)
    # a Kaehler form's phi-planes are the complex lines of its top block E
    # (their complements in codegree 2): one when dim E = 2
    return PlaneSource(draw, True, structure.kind == "kaehler"
                       and len(structure.ops[1]) == 2)


def _ascent_source(cal: Calibration, seed, normal=None,
                   max_iter=SAMPLE_MAX_ITER) -> PlaneSource:
    """The ascent half of `grassmann`: local maximizers of a Stiefel ascent
    from the random frames of the streams (seed, k), of phi or, with a
    normal, of phi restricted to the hyperplane in the coordinates of
    `hyperplane_basis`, mapped back to R^n.  No phi-plane lies in the
    hyperplane when the restriction is zero (exact), or when its comass is
    below 1 - DEGENERATE_TOL (exact when that comass is)."""
    form = cal.form
    if normal is not None:
        Q = hyperplane_basis(normal)
        form = pullback(form, Q)
        if form.norm() == 0:
            return PlaneSource(None, True)
        cm = comass(form, multistarts=RESTRICTED_STARTS, seed=seed)
        if cm.value < 1.0 - DEGENERATE_TOL:
            return PlaneSource(None, cm.exact)
    ev = FormEvaluator(form)

    def ascend(start, size):
        U, f, g, iters = _ascend_batch(
            ev, _random_frames(ev.n, ev.p, seed, range(start, start + size)),
            max_iter=max_iter)
        return (U if normal is None else Q @ U, f,
                _capped(g, iters, DEFAULT_GTOL, max_iter))
    return PlaneSource(ascend, False)


def sample_grassmannian(cal: Calibration, tol=1e-6, count=50,
                        seed=0) -> PlaneSampleSet:
    """Collect deduplicated planes with phi(xi) >= 1 - tol from the attempts
    0, 1, ... of `grassmann`, at most max(8 count, 160) of them, or one when
    G(phi) is a single plane.

    On the forms `phi_structure` recognizes the planes are drawn from G(phi)
    (``exact=True``; ``multistart_count`` counts the planes drawn); on every
    other form they are local maximizers of a multistart Stiefel ascent,
    and ``capped`` counts the ascents stopped by SAMPLE_MAX_ITER short of
    convergence.  Raises if the best value found contradicts the claimed
    comass by more than 1e-4 in either direction (comass confirmation
    failure), when count is below 1 and when tol is negative or NaN.
    """
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    if not tol >= 0:
        raise ValueError(f"tol must be at least 0, got {tol}")
    return _collect_planes(cal, grassmann(cal, seed), tol, count)


def _collect_planes(cal, source: PlaneSource, tol, count) -> PlaneSampleSet:
    """The sampling loop over the attempts of source.take."""
    max_attempts = 1 if source.single else max(8 * count, 160)
    kept = np.empty((count, cal.n, cal.p))
    values = []
    best = -np.inf
    attempts = capped = 0
    while len(values) < count and attempts < max_attempts:
        # take the next attempts together, as many as should fill the
        # sample at the kept rate seen so far; the results are taken in
        # attempt order, so the sample stops at the same attempt as a
        # one-at-a-time loop and attempts past it are discarded
        rate = (len(values) + 1) / (attempts + 1)
        size = min(math.ceil((count - len(values)) / rate),
                   max_attempts - attempts)
        for U, f, stopped in zip(*source.take(attempts, size)):
            attempts += 1
            capped += int(stopped)
            f = float(f)
            best = max(best, f)
            if f > cal.claimed_comass + 1e-4:
                raise ValueError(
                    f"comass confirmation failure: found phi(xi) = {f:.8f} "
                    f"above claimed comass {cal.claimed_comass}")
            if f < cal.claimed_comass - tol:
                continue
            if _is_duplicate(U, kept[:len(values)], DEDUP_ANGLE):
                continue
            kept[len(values)] = U
            values.append(f)
            if len(values) >= count:
                break
    if best < cal.claimed_comass - 1e-4:
        raise ValueError(
            f"comass confirmation failure: best value {best:.8f} never "
            f"reached claimed comass {cal.claimed_comass}")
    return PlaneSampleSet(kept[:len(values)], values, tol, attempts,
                          exhausted=len(values) < count, capped=capped,
                          exact=source.exact)


def random_plane_set(n, p, count=80, seed=0) -> PlaneSampleSet:
    """Uniform-ish sample of the full Grassmannian G(p, n), from the streams
    (seed, 9000 + k); a count of 0 gives an empty sample."""
    if count < 0:
        raise ValueError(f"generator count must be at least 0, got {count}")
    frames = _random_frames(n, p, seed, range(9000, 9000 + count))
    return PlaneSampleSet(frames, [0.0] * count, np.inf, count)


# ---------------------------------------------------------------------------
# constrained extrema over G(phi)
# ---------------------------------------------------------------------------

@dataclass
class ExtremumResult:
    value: float
    plane: SimplePlane
    phi_value: float
    mode: str
    stranded: int = 0   # starts the polish left off G(phi), dropped
    exact: bool = False


def kaehler_structure(phi: ExteriorElement):
    """(J, E) of `phi_structure` when it finds a Kaehler form: phi, or *phi
    in codegree 2, is Kaehler on its top singular block E, the span of E's
    orthonormal rows (exactly np.eye(n) when that block is R^n), and G(phi)
    is the complex lines v ^ Jv, v in E (their orthogonal complements in
    codegree 2); else None.  Detected once per form, and read-only."""
    structure = phi_structure(phi)
    if structure is None or structure.kind != "kaehler":
        return None
    return structure.ops


def _degree_two_skew(x: ExteriorElement) -> np.ndarray:
    x = x if x.p == 2 else hodge_star(x)   # codegree 2 through the star
    return contraction_matrix(x.to_coeff_vector(), x.n, 2)


def kaehler_matrix(x: ExteriorElement, J) -> np.ndarray:
    """sym(X J), X the skew matrix of x (of *x in codegree 2): x pairs with
    the complex line u ^ Ju (its complement) to u^T sym(X J) u."""
    P = _degree_two_skew(x) @ J
    return (P + P.T) / 2.0


def kaehler_planes(V, J, phi: ExteriorElement) -> np.ndarray:
    """(k, n, p) frames of the phi-planes of the complex lines v ^ Jv, v the
    k unit rows of V: the lines for p = 2, else their orthogonal
    complements, oriented so that phi > 0."""
    lines = np.stack([V, V @ J.T], axis=2)
    if phi.p == 2:
        return lines
    return _complements(lines, phi.to_coeff_vector())


def _complements(P, phi_vec):
    """Frames of the orthogonal complements of the planes of the stack P,
    each oriented so that the form with coefficients phi_vec is positive on
    it."""
    U = np.linalg.qr(P, mode="complete")[0][:, :, P.shape[2]:]
    U[_pluecker(U) @ phi_vec < 0.0, :, 0] *= -1.0
    return U


def constrained_extremum(alpha: ExteriorElement, cal: Calibration,
                         samples: PlaneSampleSet, mode: str, extra_starts=6,
                         seed=1, starts_limit=None) -> ExtremumResult:
    """Extremize alpha over the phi-Grassmannian.

    For a Kaehler form (`kaehler_structure`) the extremum is an end
    eigenvalue of `kaehler_matrix` in the coordinates of the block E,
    attained on its eigenvector's plane (``exact=True``; the start options
    have nothing to tune).  Otherwise the sampled planes and `extra_starts`
    random frames are polished onto G(phi) and the best of them refined
    tangentially (`_tangential_extremum`); the sample must not be empty
    there, while the Kaehler route reads none."""
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    structure = kaehler_structure(cal.form)
    if structure is None:
        if len(samples) == 0:
            raise ValueError("empty sample set")
        return _tangential_extremum(alpha, cal, samples, mode, extra_starts,
                                    seed, starts_limit)
    J, E = structure
    V = np.linalg.eigh(E @ kaehler_matrix(alpha, J) @ E.T)[1]
    U = kaehler_planes(V[:, [0 if mode == "min" else -1]].T @ E, J,
                       cal.form)[0]
    return ExtremumResult(FormEvaluator(alpha).value(U), SimplePlane(U.T),
                          FormEvaluator(cal.form).value(U), mode, exact=True)


def _tangential_extremum(alpha, cal, samples, mode, extra_starts=6, seed=1,
                         starts_limit=None):
    """Best-found extremum of alpha over G(phi): every start is polished onto
    G(phi), and the three best are refined by tangential alpha-steps
    retracted onto G(phi) by the same polish."""
    sgn = 1.0 if mode == "max" else -1.0
    ev_a = FormEvaluator(alpha)
    ev_phi = FormEvaluator(cal.form)

    starts = samples.frames
    if starts_limit is not None and len(starts) > starts_limit:
        scores = [sgn * ev_a.value(U) for U in starts]
        starts = starts[np.argsort(scores)[::-1][:starts_limit]]
    starts = np.concatenate([starts, _random_frames(
        ev_phi.n, ev_phi.p, seed, range(500, 500 + extra_starts))])

    feas_tol = max(10.0 * samples.tolerance, 1e-6)
    if not np.isfinite(feas_tol):
        feas_tol = 1e-6

    def polish(U):
        return _ascend_batch(ev_phi, U, gtol=1e-13,
                             max_iter=60, step0=0.05)[:2]

    U, fphi = polish(starts)
    # starts stranded off G(phi), e.g. on a reversed component, are dropped
    on = fphi >= 1.0 - feas_tol
    if not on.any():
        raise RuntimeError("no start polished onto the phi-Grassmannian")
    U, fphi = U[on], fphi[on]
    val = np.array([ev_a.value(Uk) for Uk in U])
    lead = np.argsort(-sgn * val, kind="stable")[:3]
    U, fphi, val = U[lead], fphi[lead], val[lead]

    # refine the leading candidates tangentially, side by side: a projected
    # alpha-step with the phi-polish as retraction moves each along G(phi).
    # A candidate stops when its step underflows or its tangential
    # alpha-gradient vanishes.
    step = np.full(len(U), 0.05)
    live = np.ones(len(U), bool)
    for _ in range(150):
        live &= step >= 1e-10
        k = np.flatnonzero(live)
        if k.size:
            T = _tangent(U[k], sgn * ev_a.value_and_grad(U[k])[1])
            moving = _fnorm(T) >= 1e-13
            live[k[~moving]] = False
            k, T = k[moving], T[moving]
        if not k.size:
            break
        U_try, fphi_try = polish(_retract(U[k] + step[k, None, None] * T))
        val_try = np.array([ev_a.value(Uk) for Uk in U_try])
        ok = (sgn * (val_try - val[k]) > 0) & (fphi_try >= 1.0 - feas_tol)
        kept = k[ok]
        U[kept], val[kept], fphi[kept] = U_try[ok], val_try[ok], fphi_try[ok]
        step[k] = np.where(ok, np.minimum(step[k] * 1.4, 0.5), step[k] * 0.5)
    best = int(np.argmax(sgn * val))
    return ExtremumResult(float(val[best]), SimplePlane(U[best].T),
                          float(fphi[best]), mode, stranded=int((~on).sum()))


# ---------------------------------------------------------------------------
# G(phi) drawn from an explicit parametrization
# ---------------------------------------------------------------------------

STRUCTURE_TOL = 1e-12


def _dense_tensor(phi: ExteriorElement) -> np.ndarray:
    """phi's coefficients as a totally antisymmetric (n, ..., n) array,
    T[i, j, ...] = phi(e_i, e_j, ...), by p contractions."""
    T = phi.vec
    for q in range(phi.p, 0, -1):
        T = contraction_matrix(T, phi.n, q)
    return T[..., 0]


def _g2_tensor(phi: ExteriorElement):
    """phi's tensor when it satisfies the G2 contraction identity: the
    defect sum_k phi_ijk phi_abk - (d_ia d_jb - d_ib d_ja) is totally
    antisymmetric (it is then *phi).  The identity makes (u x v)_k =
    phi(u, v, e_k) a cross product of R^7, so phi is an associative form in
    some orthonormal coordinates.  Else None."""
    if (phi.n, phi.p) != (7, 3):
        return None
    T, eye = _dense_tensor(phi), np.eye(7)
    D = (np.einsum("ijk,abk->ijab", T, T) - np.einsum("ia,jb->ijab", eye, eye)
         + np.einsum("ib,ja->ijab", eye, eye))
    return T if np.abs(D + D.transpose(0, 2, 1, 3)).max() <= STRUCTURE_TOL \
        else None


def _spin7_tensor(phi: ExteriorElement):
    """phi's tensor when it satisfies the Spin(7) identity
    sum_ab phi_ijab phi_klab = 6 (d_ik d_jl - d_il d_jk) + 4 phi_ijkl
    (Karigiannis, "Flows of Spin(7)-structures", 2008), so that phi is a
    Cayley form in some orthonormal coordinates.  Else None."""
    if (phi.n, phi.p) != (8, 4):
        return None
    T, eye = _dense_tensor(phi), np.eye(8)
    D = (np.einsum("ijab,klab->ijkl", T, T) - 4.0 * T
         - 6.0 * (np.einsum("ik,jl->ijkl", eye, eye)
                  - np.einsum("il,jk->ijkl", eye, eye)))
    return T if np.abs(D).max() <= STRUCTURE_TOL else None


_STRUCTURE_CACHE_SIZE = 64    # forms whose detected structure is kept


def phi_structure(phi: ExteriorElement):
    """G(phi) as the image of linear algebra on Haar vectors, read off phi's
    coefficients (Harvey-Lawson, "Calibrated geometries", Acta Math. 148,
    1982), or None:

    - Kaehler: phi, or *phi in codegree 2, is a 2-form whose skew matrix W
      has top singular value 1, so phi is a calibration.  In the normal
      form sum_k lambda_k e_{2k-1} ^ e_{2k} of phi or *phi, G(phi) is the
      complex lines v ^ Jv, J = -W, of the span E of the pairs with
      lambda_k = 1, or their complements in codegree 2.  E is the
      eigenspace of W^T W for the eigenvalues within STRUCTURE_TOL of 1, on
      which J is orthogonal; ops are J and orthonormal rows spanning E,
      exactly np.eye(n) when E is R^n;
    - associative (`_g2_tensor`): u ^ v ^ (u x v);
    - coassociative, *phi associative: the complements of those;
    - Cayley (`_spin7_tensor`): u ^ v ^ w ^ (u x v x w);
    - special Lagrangian, phi = Re(dz1 ^ ... ^ dzm) in the `calibrations`
      coordinates: the planes A R^m, A in SU(m);
    - quaternionic, phi the `calibrations` form for (I, J, K) of
      `quaternionic_structure`: the lines span{v, Iv, Jv, Kv}.

    The identities of the first five are invariant under O(n), so they also
    find the form in rotated coordinates; the last two match the catalogue
    coordinates only.  Detected once per form: the structure is kept, with
    read-only arrays, for the last _STRUCTURE_CACHE_SIZE coefficient
    vectors seen."""
    return _cached_structure(phi.n, phi.p, phi.to_coeff_vector().tobytes())


@functools.lru_cache(maxsize=_STRUCTURE_CACHE_SIZE)
def _cached_structure(n, p, key):
    return _detect_structure(ExteriorElement.from_coeff_vector(
        n, p, np.frombuffer(key), drop_tol=0.0))


def _detect_structure(phi: ExteriorElement):
    """`phi_structure`, detected afresh."""
    n, p = phi.n, phi.p
    if p >= 2 and 2 in (p, n - p):
        W = _degree_two_skew(phi)
        # the eigenvalues of W^T W are the squared singular values: a top
        # one of 1 makes phi a calibration, Kaehler on its eigenspace
        lam, V = np.linalg.eigh(W.T @ W)
        top = np.abs(lam - 1.0) <= STRUCTURE_TOL
        if top[-1]:
            return PhiStructure("kaehler", phi, -W,
                                np.eye(n) if top.all() else V[:, top].T)
    if n == 7 and p in (3, 4):
        T = _g2_tensor(phi if p == 3 else hodge_star(phi))
        if T is not None:
            return PhiStructure("associative" if p == 3 else "coassociative",
                                phi, T)
    T = _spin7_tensor(phi)
    if T is not None:
        return PhiStructure("cayley", phi, T)
    if 2 * p == n and p >= 2 and _is_form(phi, "special_lagrangian", p):
        return PhiStructure("special_lagrangian", phi, complex_structure(p))
    if p == 4 and n % 4 == 0 and _is_form(phi, "quaternionic", n // 4):
        return PhiStructure("quaternionic", phi,
                            *quaternionic_structure(n // 4))
    return None


def _is_form(phi: ExteriorElement, name, m) -> bool:
    """Whether phi is the catalogue form name(m) to STRUCTURE_TOL."""
    ref = catalogue(name, m).form.to_coeff_vector()
    return np.abs(phi.to_coeff_vector() - ref).max() <= STRUCTURE_TOL


def _unit_rows(X):
    return X / np.linalg.norm(X, axis=-1, keepdims=True)


def _haar_perp(rng, count, n, *constraints):
    """count Haar unit vectors of R^n, each orthogonal to the matching rows
    of the (count, n) constraint stacks, which are orthonormal row by
    row."""
    x = rng.standard_normal((count, n))
    for c in constraints:
        x = x - (x * c).sum(axis=1, keepdims=True) * c
    return _unit_rows(x)


def _cross(T, *vectors):
    """Rows of the cross product (v_1 x ... x v_k)_l = T(v_1, ..., v_k, e_l)
    of (count, n) stacks."""
    out = np.tensordot(vectors[0], T, axes=(1, 0))
    for v in vectors[1:]:
        out = np.einsum("si,si...->s...", v, out)
    return out


class PhiStructure:
    """An explicit parametrization of G(phi) (see `phi_structure`)."""

    def __init__(self, kind, phi: ExteriorElement, *ops):
        self.kind, self.ops, self.phi = kind, ops, phi
        self.n, self.p = phi.n, phi.p
        self._phi_vec = phi.to_coeff_vector()
        for a in ops + (self._phi_vec,):
            a.flags.writeable = False     # cached: shared by every caller

    def draw(self, rng, count, normal=None) -> np.ndarray:
        """(count, n, p) stack of orthonormal frames of planes of G(phi),
        drawn from Haar vectors of rng; with a normal, of planes of G(phi)
        inside the hyperplane normal^perp, as a (0, n, p) stack when there
        is none (`meets`).  Raises if a drawn plane misses phi = 1 or the
        hyperplane by more than STRUCTURE_TOL."""
        return self._draw(rng, count, normal)[0]

    def meets(self, normal) -> bool:
        """Whether a plane of G(phi) lies in the hyperplane normal^perp.
        None does when p = n.  For a Kaehler form with block E (p = 2) one
        does when dim E > 2 or normal is orthogonal to E, and a complement
        (codegree 2) does when normal lies in E, all to STRUCTURE_TOL; on
        the other structures one always does."""
        if self.p == self.n:
            return False
        if self.kind != "kaehler":
            return True
        E = self.ops[1]
        a = np.asarray(normal, dtype=float) / np.linalg.norm(normal)
        if self.p == 2:
            return len(E) > 2 or np.linalg.norm(E @ a) <= STRUCTURE_TOL
        return np.linalg.norm(a - (E @ a) @ E) <= STRUCTURE_TOL

    def _draw(self, rng, count, normal=None):
        """The frames `draw` gives, and phi on each."""
        if normal is not None:
            normal = np.asarray(normal, dtype=float)
            normal = normal / np.linalg.norm(normal)
            if not self.meets(normal):
                return np.empty((0, self.n, self.p)), np.empty(0)
            at = np.broadcast_to(normal, (count, self.n))
        else:
            at = None
        U = getattr(self, "_draw_" + self.kind)(rng, count, at)
        values = _pluecker(U) @ self._phi_vec
        off = np.abs(values - 1.0).max(initial=0.0)
        if not off <= STRUCTURE_TOL:        # a NaN draw fails too
            raise RuntimeError(f"{self.kind} draw off G(phi): |phi - 1| = "
                               f"{off!r}")
        if at is not None:
            off = np.abs(normal @ U).max(initial=0.0)
            if not off <= STRUCTURE_TOL:
                raise RuntimeError(f"{self.kind} draw leaves the hyperplane "
                                   f"by {off!r}")
        return U, values

    # each _draw_<kind>(rng, count, at) gets the normal repeated on count
    # rows, or None, and returns the frames

    def _draw_kaehler(self, rng, count, at):
        # v Haar on the unit sphere of the top block E, drawn in the
        # coordinates of its orthonormal rows
        J, E = self.ops
        if at is not None and self.p != 2:
            # at lies in E (`meets`), and a complement lies in at^perp
            # when its line contains at
            return kaehler_planes(at, J, self.phi)
        fixed = ()
        # with dim E = 2, `meets` lets through only an at orthogonal to E
        a = E @ at[0] if at is not None and len(E) > 2 else np.zeros(0)
        if np.linalg.norm(a) > STRUCTURE_TOL:
            # at projected to E, in E's coordinates: v ^ Jv lies in at^perp
            # when v is orthogonal to a and Ja
            a = a / np.linalg.norm(a)
            fixed = (a, a @ (E @ J.T @ E.T))
        v = _haar_perp(rng, count, len(E), *fixed) @ E
        return kaehler_planes(v, J, self.phi)

    def _associative_planes(self, rng, count, u, *constraints):
        T, = self.ops
        v = _haar_perp(rng, count, 7, u, *constraints)
        return np.stack([u, v, _cross(T, u, v)], axis=2)

    def _draw_associative(self, rng, count, at):
        if at is None:
            return self._associative_planes(rng, count,
                                            _haar_perp(rng, count, 7))
        # u in at^perp, then v orthogonal to u, at and at x u, so that
        # at . (u x v) = phi(u, v, at) = (at x u) . v = 0
        u = _haar_perp(rng, count, 7, at)
        return self._associative_planes(rng, count, u, at,
                                        _cross(self.ops[0], at, u))

    def _draw_coassociative(self, rng, count, at):
        # complements of associative planes, through at for at^perp
        u = _haar_perp(rng, count, 7) if at is None else at
        return _complements(self._associative_planes(rng, count, u),
                            self._phi_vec)

    def _draw_cayley(self, rng, count, at):
        T, = self.ops
        fixed = () if at is None else (at,)
        u = _haar_perp(rng, count, 8, *fixed)
        v = _haar_perp(rng, count, 8, u, *fixed)
        if at is not None:
            # at . (u x v x w) = +-(at x u x v) . w
            fixed += (_cross(T, at, u, v),)
        w = _haar_perp(rng, count, 8, u, v, *fixed)
        return np.stack([u, v, w, _cross(T, u, v, w)], axis=2)

    def _draw_special_lagrangian(self, rng, count, at):
        # A in SU(m) acting on R^m, in the interleaved coordinates where
        # z_k = x_k + i y_k; a Lagrangian plane L lies in at^perp exactly
        # when J at lies in L (J L = L^perp), so A's first column is J at
        J, = self.ops
        G = rng.standard_normal((count, self.n, self.p))
        Z = G[:, 0::2] + 1j * G[:, 1::2]
        if at is not None:
            Jat = at @ J.T
            Z[:, :, 0] = Jat[:, 0::2] + 1j * Jat[:, 1::2]
        A, R = np.linalg.qr(Z)
        d = np.diagonal(R, axis1=1, axis2=2)
        A = A * (d / np.abs(d))[:, None, :]          # Haar on U(m)
        A[:, :, -1] *= np.conj(np.linalg.det(A))[:, None]
        U = np.empty((count, self.n, self.p))
        U[:, 0::2], U[:, 1::2] = A.real, A.imag
        return U

    def _draw_quaternionic(self, rng, count, at):
        if at is None:
            v = _haar_perp(rng, count, self.n)
        else:
            # the line of v is orthogonal to at when v is orthogonal to the
            # line of at
            v = _haar_perp(rng, count, self.n, at,
                           *(at @ M.T for M in self.ops))
        return np.stack([v] + [v @ M.T for M in self.ops], axis=2)


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


SV_CUTOFF = 1e-8


def span_split(rows):
    """Orthonormal bases (span, perp) of the row space of ``rows`` and of its
    orthogonal complement, splitting singular values at SV_CUTOFF relative to
    the largest."""
    _, s, vt = np.linalg.svd(rows, full_matrices=True)
    d = int((s > SV_CUTOFF * (s[0] if s.size else 1.0)).sum())
    return vt[:d], vt[d:]


def hyperplane_basis(u) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to u,
    returned as an (n, n-1) column matrix."""
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    n = u.size
    M = np.column_stack([u, np.eye(n)])
    q, r = np.linalg.qr(M)
    # a pivot of exactly 0 (u on a coordinate axis) keeps its column
    q = q * np.where(np.diag(r)[:n] < 0, -1.0, 1.0)[None, :]
    return q[:, 1:n]


@dataclass
class ReduceResult:
    W: np.ndarray            # (d, n) rows: orthonormal basis of the span
    psi: ExteriorElement     # phi restricted to W, in W coordinates
    elliptic: bool
    witness: np.ndarray | None
    witness_residual: float


def reduce_calibration(cal: Calibration,
                       samples: PlaneSampleSet) -> ReduceResult:
    """Span of the sampled plane spans, the restricted form, and ellipticity.

    The caller is responsible for the samples being representative of the
    whole phi-Grassmannian; the reduction inherits any sampling gap.
    """
    if len(samples) == 0:
        raise ValueError("empty sample set")
    W, perp = span_split(samples.frames.transpose(0, 2, 1).reshape(-1, cal.n))
    psi = pullback(cal.form, W.T)
    elliptic = len(W) == cal.n
    witness = None
    residual = 0.0
    if not elliptic:
        witness = perp[-1]
        residual = max(interior_product(witness, pl.pvector()).norm()
                       for pl in samples.planes)
    return ReduceResult(W, psi, elliptic, witness, residual)
