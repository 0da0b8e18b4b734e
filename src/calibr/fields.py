"""Scalar fields with gradient and Hessian suppliers, plus a name registry.

Analytic callbacks are used when provided (polynomial fields get them for
free); otherwise central differences at a configurable step fill in.  When
an analytic supplier exists it is cross-validated against the differences
at construction time.
"""

from __future__ import annotations

import numpy as np

from .polynomial import Polynomial

FD_STEP = 1e-4
VALIDATE_TOL = 1e-5     # analytic suppliers against differences, relative


class ScalarField:
    """f: R^n -> R with gradient/hessian suppliers."""

    def __init__(self, n, fn, grad=None, hess=None, name=None,
                 poly: Polynomial | None = None, validate=True):
        self.n = int(n)
        self.fn = fn
        self.name = name or "field"
        self.poly = poly
        self._grad = grad
        self._hess = hess
        if validate and (grad is not None or hess is not None):
            self._validate()

    @classmethod
    def from_polynomial(cls, poly: Polynomial, name=None):
        return cls(poly.n, poly.__call__, grad=poly.gradient_at,
                   hess=poly.hessian_at, name=name or repr(poly), poly=poly,
                   validate=False)

    def __call__(self, x):
        return float(self.fn(np.asarray(x, dtype=float)))

    def _step(self, x):
        return FD_STEP * max(1.0, float(np.abs(x).max()))

    def _fd_gradient(self, x):
        x = np.asarray(x, dtype=float)
        h = self._step(x)
        g = np.zeros(self.n)
        for i in range(self.n):
            e = np.zeros(self.n)
            e[i] = h
            g[i] = (self.fn(x + e) - self.fn(x - e)) / (2 * h)
        return g

    def _fd_hessian(self, x):
        x = np.asarray(x, dtype=float)
        h = self._step(x)
        H = np.zeros((self.n, self.n))
        f0 = self.fn(x)
        for i in range(self.n):
            ei = np.zeros(self.n)
            ei[i] = h
            H[i, i] = (self.fn(x + ei) - 2 * f0 + self.fn(x - ei)) / h ** 2
            for j in range(i + 1, self.n):
                ej = np.zeros(self.n)
                ej[j] = h
                H[i, j] = H[j, i] = (
                    self.fn(x + ei + ej) - self.fn(x + ei - ej)
                    - self.fn(x - ei + ej) + self.fn(x - ei - ej)) / (4 * h ** 2)
        return H

    def gradient(self, x):
        if self._grad is not None:
            return np.asarray(self._grad(np.asarray(x, dtype=float)),
                              dtype=float)
        return self._fd_gradient(x)

    def hessian(self, x):
        if self._hess is not None:
            return np.asarray(self._hess(np.asarray(x, dtype=float)),
                              dtype=float)
        return self._fd_hessian(x)

    def second_directional(self, x, u):
        """Second derivative along u by differences on the line (independent
        of the assembled Hessian when no analytic supplier exists)."""
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if self._hess is not None:
            return float(u @ self.hessian(x) @ u)
        h = self._step(x)
        return (self.fn(x + h * u) - 2 * self.fn(x) + self.fn(x - h * u)) / h ** 2

    def _validate(self):
        rng = np.random.default_rng(0)
        probes = [np.zeros(self.n)] + [rng.standard_normal(self.n)
                                       for _ in range(3)]
        for x in probes:
            if self._grad is not None:
                ga, gf = np.asarray(self._grad(x)), self._fd_gradient(x)
                scale = max(1.0, np.abs(ga).max())
                if np.abs(ga - gf).max() > VALIDATE_TOL * scale:
                    raise ValueError(
                        f"analytic gradient disagrees with differences at {x}")
            if self._hess is not None:
                Ha, Hf = np.asarray(self._hess(x)), self._fd_hessian(x)
                scale = max(1.0, np.abs(Ha).max())
                if np.abs(Ha - Hf).max() > VALIDATE_TOL * scale:
                    raise ValueError(
                        f"analytic hessian disagrees with differences at {x}")


def compose(field: ScalarField, chi, dchi, ddchi) -> ScalarField:
    """chi(f) with chain-rule suppliers; chi given by value and derivatives."""
    def fn(x):
        return chi(field(x))

    def grad(x):
        return dchi(field(x)) * field.gradient(x)

    def hess(x):
        g = field.gradient(x)
        v = field(x)
        return dchi(v) * field.hessian(x) + ddchi(v) * np.outer(g, g)

    return ScalarField(field.n, fn, grad=grad, hess=hess,
                       name=f"chi({field.name})", validate=False)


def quadratic_field(A) -> ScalarField:
    """f(x) = x.A.x / 2 for symmetric A."""
    A = np.asarray(A, dtype=float)
    A = (A + A.T) / 2
    n = A.shape[0]
    return ScalarField(n, lambda x: 0.5 * x @ A @ x, grad=lambda x: A @ x,
                       hess=lambda x: A.copy(), name="quadratic",
                       validate=False)


# name: (the x_i^2 coefficients in coordinate order, one float for all of
# them; zeros are dropped), minimum n
_DIAGONAL_QUADRATICS = {
    "normsq": (1.0, 0),
    "half_normsq": (0.5, 0),
    "neg_normsq": (-1.0, 0),
    "abs_z1_sq": ((1.0, 1.0), 2),
    "re_z1_sq": ((1.0, -1.0), 2),
    "neg_x3_sq": ((0.0, 0.0, -1.0), 3),
}


def builtin_field(name: str, n: int) -> ScalarField:
    """Named fields for the CLI and tests.

    Coordinates on C^k are interleaved (x1, y1, x2, y2, ...), so |z1|^2 is
    x1^2 + y1^2 in coordinates 1 and 2.
    """
    key = name.strip().lower()
    key = "normsq" if key == "norm_sq" else key
    if key in _DIAGONAL_QUADRATICS:
        coeffs, min_n = _DIAGONAL_QUADRATICS[key]
        if n < min_n:
            raise ValueError(f"{key} needs n >= {min_n}")
        if isinstance(coeffs, float):
            coeffs = (coeffs,) * n
        poly = Polynomial(n, {tuple(2 * (i == j) for j in range(n)): c
                              for i, c in enumerate(coeffs)})
        return ScalarField.from_polynomial(poly, key)
    if key == "re_z1":
        return ScalarField.from_polynomial(Polynomial.coordinate(n, 1), "re_z1")
    if key.startswith("coord:"):
        i = int(key.split(":", 1)[1])
        return ScalarField.from_polynomial(Polynomial.coordinate(n, i),
                                           f"coord:{i}")
    raise ValueError(f"unknown builtin field '{name}'")


def field_from_json(data, n=None) -> ScalarField:
    """Polynomial field from {"n": int, "terms": [{"exps": [...], "coeff": r}]}."""
    if n is None:
        n = int(data["n"])
    terms = {}
    for k, term in enumerate(data["terms"]):
        exps = tuple(int(e) for e in term["exps"])
        if len(exps) != n:
            raise ValueError(f"term {k}: expected {n} exponents")
        terms[exps] = terms.get(exps, 0.0) + float(term["coeff"])
    return ScalarField.from_polynomial(Polynomial(n, terms),
                                       data.get("name", "poly"))


BUILTIN_SET1 = ("re_z1", "abs_z1_sq", "re_z1_sq", "normsq")
