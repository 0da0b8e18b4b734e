"""Output checks that do not use the library's own code paths.

Each function recomputes a quantity from the raw inputs with plain numpy
(closed forms where the mathematics gives one) and raises CheckFailed when a
library result disagrees.  A check may read the coefficients of a form or the
frame of a plane, because those are data, but it never calls a calibr
function to decide whether calibr was right.
"""

from __future__ import annotations

import itertools

import numpy as np


class CheckFailed(Exception):
    """A job's output contradicts the benchmark's independent check."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def lex_basis(n, p):
    """Strictly increasing 0-based index tuples in lexicographic order."""
    return list(itertools.combinations(range(n), p))


def coeff_vector(coeffs, n, p):
    """Dense lexicographic vector of a {1-based index tuple: coeff} dict."""
    pos = {idx: k for k, idx in enumerate(lex_basis(n, p))}
    vec = np.zeros(len(pos))
    for idx, c in coeffs.items():
        vec[pos[tuple(i - 1 for i in idx)]] += c
    return vec


def plucker(frame):
    """Pluecker coordinates (all p x p minors) of the rows of a p x n frame."""
    frame = np.asarray(frame, dtype=float)
    p, n = frame.shape
    return np.array([np.linalg.det(frame[:, list(idx)])
                     for idx in lex_basis(n, p)])


def form_on_plane(coeffs, frame):
    """phi(e_1 ^ ... ^ e_p) for the orthonormal rows e_k of frame."""
    frame = np.asarray(frame, dtype=float)
    p, n = frame.shape
    require(np.allclose(frame @ frame.T, np.eye(p), atol=1e-9),
            "plane frame is not orthonormal")
    return float(coeff_vector(coeffs, n, p) @ plucker(frame))


def skew_matrix(vec, n):
    """Skew matrix X with X[i, j] = xi_ij for a 2-vector's lex vector."""
    X = np.zeros((n, n))
    for (i, j), v in zip(lex_basis(n, 2), vec):
        X[i, j] = v
        X[j, i] = -v
    return X


def mass_of_2vector(vec, n):
    """Mass norm of a 2-vector: half the nuclear norm of its skew matrix
    (Harvey-Lawson normal form)."""
    return 0.5 * float(np.linalg.svd(skew_matrix(vec, n),
                                     compute_uv=False).sum())


def complex_structure(k):
    """J on C^k = R^2k with interleaved (x1, y1, ...): x_j -> y_j."""
    J = np.zeros((2 * k, 2 * k))
    for j in range(k):
        J[2 * j + 1, 2 * j] = 1.0
        J[2 * j, 2 * j + 1] = -1.0
    return J


def min_over_complex_lines(alpha_vec):
    """Exact minimum of a 2-form on R^4 over oriented complex lines of C^2.

    The line through a unit v is v ^ Jv, and alpha(v, Jv) = v^T A J v, so
    the minimum is the smallest eigenvalue of sym(A J).
    """
    AJ = skew_matrix(alpha_vec, 4) @ complex_structure(2)
    return float(np.linalg.eigvalsh((AJ + AJ.T) / 2.0)[0])


def kaehler_cone_margin(vec):
    """Smallest eigenvalue of P = X J for a 2-vector on C^2, or -inf when P
    is not symmetric (xi not of type (1,1)).  Positive combinations of
    complex lines are exactly the xi whose P is positive semidefinite."""
    P = skew_matrix(vec, 4) @ complex_structure(2)
    if np.abs(P - P.T).max() > 1e-9 * max(1.0, np.abs(P).max()):
        return -np.inf
    return float(np.linalg.eigvalsh((P + P.T) / 2.0)[0])


def triangle_area(verts):
    e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
    return 0.5 * float(np.sqrt(max((e1 @ e1) * (e2 @ e2) - (e1 @ e2) ** 2,
                                   0.0)))


def integrate_polyform(simplices, comps, n):
    """Integral of sum_I P_I(x) dx_I over weighted triangles, by the edge
    midpoint rule, which is exact for coefficients of degree <= 2.

    comps maps 1-based index pairs to {exponent tuple: coeff} polynomials.
    """
    V = np.array([v for v, _ in simplices])               # (T, 3, n)
    mult = np.array([m for _, m in simplices])
    e1, e2 = V[:, 1] - V[:, 0], V[:, 2] - V[:, 0]
    wedge = {(i, j): e1[:, i] * e2[:, j] - e1[:, j] * e2[:, i]
             for i, j in lex_basis(n, 2)}
    area2 = np.sqrt(sum(w * w for w in wedge.values()))   # twice the area
    mids = (V + np.roll(V, -1, axis=1)) / 2.0              # (T, 3, n)
    total = 0.0
    for idx, terms in comps.items():
        vals = sum(c * np.prod(mids ** np.array(exps), axis=2)
                   for exps, c in terms.items())          # (T, 3)
        xi = wedge[tuple(i - 1 for i in idx)] / area2
        total += float(np.sum(mult * xi * vals.mean(axis=1) * area2 / 2.0))
    return total


def lp_feasible(A, b):
    """Is {w >= 0 : A w = b} nonempty?  Decided by HiGHS, not the in-repo
    simplex."""
    from scipy.optimize import linprog
    res = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=b, bounds=(0, None),
                  method="highs")
    require(res.status in (0, 2), f"HiGHS reference failed: {res.message}")
    return res.status == 0


def min_mass(A, b):
    """min 1.w subject to A w = b, w >= 0, by HiGHS."""
    from scipy.optimize import linprog
    res = linprog(np.ones(A.shape[1]), A_eq=A, b_eq=b, bounds=(0, None),
                  method="highs")
    require(res.status == 0, f"HiGHS reference failed: {res.message}")
    return float(res.fun)
