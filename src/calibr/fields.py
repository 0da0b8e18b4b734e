"""Scalar fields with exact gradient and Hessian suppliers, plus a name
registry.

Every field carries both suppliers: polynomial fields (the builtins and
JSON fields) take them from their polynomial, and a library field passes
them to `ScalarField`.  Nothing is differenced.
"""

from __future__ import annotations

import numpy as np

from .polynomial import Polynomial


class ScalarField:
    """f: R^n -> R with its gradient and Hessian suppliers."""

    def __init__(self, n, fn, grad, hess, name=None,
                 poly: Polynomial | None = None):
        self.n = int(n)
        self.fn = fn
        self.name = name or "field"
        self.poly = poly
        self._grad = grad
        self._hess = hess

    @classmethod
    def from_polynomial(cls, poly: Polynomial, name=None):
        return cls(poly.n, poly.__call__, poly.gradient_at, poly.hessian_at,
                   name=name or repr(poly), poly=poly)

    def __call__(self, x):
        return float(self.fn(np.asarray(x, dtype=float)))

    def gradient(self, x):
        return np.asarray(self._grad(np.asarray(x, dtype=float)), dtype=float)

    def hessian(self, x):
        return np.asarray(self._hess(np.asarray(x, dtype=float)), dtype=float)


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

    return ScalarField(field.n, fn, grad, hess, name=f"chi({field.name})")


def quadratic_field(A) -> ScalarField:
    """f(x) = x.A.x / 2 for symmetric A."""
    A = np.asarray(A, dtype=float)
    A = (A + A.T) / 2
    n = A.shape[0]
    return ScalarField(n, lambda x: 0.5 * x @ A @ x, lambda x: A @ x,
                       lambda x: A.copy(), name="quadratic")


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
        c = float(term["coeff"])
        if not np.isfinite(c):
            raise ValueError(f"term {k}: coefficient must be finite")
        terms[exps] = terms.get(exps, 0.0) + c
    return ScalarField.from_polynomial(Polynomial(n, terms),
                                       data.get("name", "poly"))


BUILTIN_SET1 = ("re_z1", "abs_z1_sq", "re_z1_sq", "normsq")
