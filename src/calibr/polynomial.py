"""Sparse multivariate polynomials and polynomial-coefficient forms.

Polynomials power the built-in scalar fields and the exact integration of
forms over simplices (a collapsed Gauss rule exact up to the degree
present); Legendre tables power the test families of the finite duality
models.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .exterior import ExteriorElement, lex_indices, lex_position, wedge_table


class Polynomial:
    """Polynomial in n variables, stored as {exponent tuple: coefficient};
    raises on a NaN or infinite coefficient, naming its exponents."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = int(n)
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.n or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for n={self.n}")
            c = float(c)
            if not math.isfinite(c):
                raise ValueError(f"coefficient of {exps} must be finite, "
                                 f"got {c!r}")
            if c != 0.0:
                clean[exps] = clean.get(exps, 0.0) + c
        self.terms = {k: v for k, v in clean.items() if v != 0.0}

    @classmethod
    def constant(cls, n, c):
        return cls(n, {(0,) * n: c})

    @classmethod
    def coordinate(cls, n, i):
        """The coordinate function x_i (1-based)."""
        e = [0] * n
        e[i - 1] = 1
        return cls(n, {tuple(e): 1.0})

    @classmethod
    def monomial(cls, n, exps):
        return cls(n, {tuple(exps): 1.0})

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.n, other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) + v
        return Polynomial(self.n, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.n, other)
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(self.n, {k: other * v for k, v in self.terms.items()})
        out = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                k = tuple(a + b for a, b in zip(ka, kb))
                out[k] = out.get(k, 0.0) + va * vb
        return Polynomial(self.n, out)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __call__(self, x):
        """Value at one point of shape (n,): a one-row ``values_at``."""
        return self.values_at(_as_points(x, self.n, 1)[None])[0]

    def values_at(self, X):
        """(P,) values at the rows of a (P, n) point stack, term by term;
        powers are ``np.float_power``, the C pow of a scalar ``x ** e``,
        where ``np.power`` may take a SIMD pow that differs in the last bit."""
        X = _as_points(X, self.n, 2)
        total = np.zeros(len(X))
        for exps, c in self.terms.items():
            v = c
            for j, e in enumerate(exps):
                if e:
                    v = v * np.float_power(X[:, j], e)
            total = total + v
        return total

    def partial(self, i):
        """d/dx_i (1-based)."""
        out = {}
        for exps, c in self.terms.items():
            e = exps[i - 1]
            if e == 0:
                continue
            new = list(exps)
            new[i - 1] -= 1
            k = tuple(new)
            out[k] = out.get(k, 0.0) + c * e
        return Polynomial(self.n, out)

    def gradient_at(self, x):
        return np.array([self.partial(i)(x) for i in range(1, self.n + 1)])

    def hessian_at(self, x):
        H = np.zeros((self.n, self.n))
        for i in range(1, self.n + 1):
            pi = self.partial(i)
            for j in range(i, self.n + 1):
                H[i - 1, j - 1] = H[j - 1, i - 1] = pi.partial(j)(x)
        return H

    def substitute_linear(self, M, c=None):
        """Substitute x_j = sum_i M[i, j] t_i + c_j; result in the t variables.

        M has shape (m, n) where m is the number of new variables.
        """
        M = np.asarray(M, dtype=float)
        m, n = M.shape
        if n != self.n:
            raise ValueError("substitution shape mismatch")
        c = np.zeros(n) if c is None else np.asarray(c, dtype=float)
        # x_j as degree-1 polynomials in t
        subs = []
        for j in range(n):
            terms = {(0,) * m: c[j]}
            for i in range(m):
                if M[i, j] != 0.0:
                    e = [0] * m
                    e[i] = 1
                    terms[tuple(e)] = M[i, j]
            subs.append(Polynomial(m, terms))
        out = Polynomial.constant(m, 0.0)
        for exps, coef in self.terms.items():
            term = Polynomial.constant(m, coef)
            for j, e in enumerate(exps):
                for _ in range(e):
                    term = term * subs[j]
            out = out + term
        return out

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for exps, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i+1}^{e}" for i, e in enumerate(exps) if e)
            bits.append(f"{c:g}{'*' + mono if mono else ''}")
        return "Polynomial(" + " + ".join(bits) + ")"


def _as_points(X, n, ndim):
    """X as a float array of ndim dimensions whose last axis has length n."""
    X = np.asarray(X, dtype=float)
    if X.ndim != ndim or X.shape[-1] != n:
        raise ValueError(f"points must have {n} coordinates, got an array "
                         f"of shape {X.shape}")
    return X


def legendre_tables(X, lo, hi, degree):
    """(3, n, degree+1, P) values and first and second derivatives in x_l
    of q_k = sqrt((2k+1)/(hi_l-lo_l)) P_k(t), t = (2x_l-lo_l-hi_l)/(hi_l-lo_l),
    for each axis l, Legendre degree k and row x of a (P, n) point stack.
    Products over the axes of one q each are orthonormal in L2 of the box
    [lo, hi] (Dunkl-Xu, Orthogonal Polynomials of Several Variables)."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    X = _as_points(X, len(lo), 2)
    w = hi - lo
    t = (2.0 * X - lo - hi) / w
    leg = np.polynomial.legendre
    T = np.array([leg.legval(t, leg.legder(np.eye(degree + 1), o))
                  * (2.0 / w) ** o for o in range(3)])   # (3, k, P, n)
    T *= np.sqrt((2 * np.arange(degree + 1)[:, None] + 1) / w)[:, None]
    return T.transpose(0, 3, 1, 2)


# ---------------------------------------------------------------------------
# exact integration over simplices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _collapsed_rule(p, degree):
    """Barycentric nodes (K, p+1) and weights (K,), summing to one, of the
    collapsed Gauss-Legendre rule on the p-simplex that is exact up to the
    given total degree.  The Duffy map lambda_0 = 1 - t_1,
    lambda_k = t_1 .. t_k (1 - t_{k+1}), lambda_p = t_1 .. t_p has Jacobian
    prod t_k^(p-k), so a degree-d polynomial has degree <= d + p - 1 in
    each t_k."""
    t, w = np.polynomial.legendre.leggauss(max(1, -(-(degree + p) // 2)))
    K = len(t) ** p
    T = np.array(list(itertools.product((t + 1) / 2, repeat=p))).reshape(K, p)
    W = np.array(list(itertools.product(w / 2, repeat=p))).reshape(K, p)
    W = math.factorial(p) * np.prod(W * T ** np.arange(p - 1, -1, -1), axis=1)
    ones = np.ones((K, 1))
    lam = np.hstack([ones, np.cumprod(T, axis=1)]) * np.hstack([1.0 - T, ones])
    return lam, W


def simplex_monomial_means(V, exps):
    """(N, M) mean values of the monomials x^e, e in exps, over each simplex
    of an (N, p+1, n) vertex stack, from one collapsed rule exact up to the
    highest degree in exps; each node coordinate is raised once to each of
    its distinct exponents."""
    V = np.asarray(V, dtype=float)
    E = np.asarray(exps, dtype=int).reshape(-1, V.shape[2])
    lam, w = _collapsed_rule(V.shape[1] - 1, int(E.sum(axis=1).max(initial=0)))
    X = lam @ V                                   # (N, K, n) nodes
    vals = np.ones(X.shape[:2] + (len(E),))
    for j, e in enumerate(E.T):
        powers, col = np.unique(e, return_inverse=True)
        vals *= (X[..., j, None] ** powers)[..., col]
    return w @ vals


def simplex_volume(vertices):
    """p-dimensional volume of a simplex with p+1 vertices in R^n."""
    V = np.asarray(vertices, dtype=float)
    E = V[1:] - V[0]
    p = E.shape[0]
    if p == 0:
        return 1.0
    gram = E @ E.T
    det = np.linalg.det(gram)
    return math.sqrt(max(det, 0.0)) / math.factorial(p)


def integrate_over_simplex(poly: Polynomial, vertices) -> float:
    """Exact integral of a polynomial over a geometric simplex in R^n: the
    one-simplex view of ``simplex_monomial_means`` times the volume."""
    vol = simplex_volume(vertices)
    if vol == 0.0:
        return 0.0
    means = simplex_monomial_means(np.asarray(vertices, dtype=float)[None],
                                   list(poly.terms))[0]
    return float(np.fromiter(poly.terms.values(), float) @ means * vol)


# ---------------------------------------------------------------------------
# polynomial-coefficient differential forms
# ---------------------------------------------------------------------------

class PolyForm:
    """Degree-p form with polynomial coefficients: sum_I P_I(x) dx_I."""

    __slots__ = ("n", "p", "comps")

    def __init__(self, n, p, comps=None):
        self.n = int(n)
        self.p = int(p)
        clean = {}
        for idx, poly in (comps or {}).items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != p or any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"bad index tuple {idx}")
            if not isinstance(poly, Polynomial):
                poly = Polynomial.constant(n, float(poly))
            if poly.terms:
                clean[idx] = clean.get(idx, Polynomial.constant(n, 0.0)) + poly
        self.comps = {k: v for k, v in clean.items() if v.terms}

    def __add__(self, other):
        out = dict(self.comps)
        for k, v in other.comps.items():
            out[k] = out.get(k, Polynomial.constant(self.n, 0.0)) + v
        return PolyForm(self.n, self.p, out)

    def __mul__(self, scalar):
        return PolyForm(self.n, self.p,
                        {k: v * float(scalar) for k, v in self.comps.items()})

    __rmul__ = __mul__

    def d(self) -> "PolyForm":
        """Exterior derivative, computed symbolically; `wedge_table` places
        each dx_i ^ dx_J, in a run of n - p rows per J."""
        n, p = self.n, self.p
        _, i, c, sign = (col.tolist() for col in wedge_table(n, p + 1, 1))
        pos, basis = lex_position(n, p), lex_indices(n, p + 1)
        out = {}
        for idx, poly in self.comps.items():
            start = pos[idx] * (n - p)
            for r in range(start, start + n - p):
                dp = poly.partial(i[r] + 1)
                if not dp.terms:
                    continue
                terms = out.setdefault(basis[c[r]], {})
                for k, coef in dp.terms.items():
                    terms[k] = terms.get(k, 0.0) + sign[r] * coef
        return PolyForm(n, p + 1,
                        {idx: Polynomial(n, t) for idx, t in out.items()})

    def at(self, x) -> ExteriorElement:
        """Freeze coefficients at the point x."""
        return ExteriorElement(self.n, self.p,
                               {idx: poly(x) for idx, poly in self.comps.items()})


def monomial_exponents(n, max_degree, include_constant=True):
    """All exponent tuples with total degree <= max_degree, graded-lex order."""
    out = []
    for d in range(0 if include_constant else 1, max_degree + 1):
        for exps in itertools.combinations_with_replacement(range(n), d):
            e = [0] * n
            for i in exps:
                e[i] += 1
            out.append(tuple(e))
    return out
