"""Catalogue of constant calibrations with certified comass one.

Coefficient tables for the exceptional forms come from the standard
literature conventions; none is trusted blindly — the test suite confirms
every catalogue entry against the comass optimizer before release.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exterior import (ExteriorElement, form_from_json, form_to_json,
                       hodge_star, wedge)


@dataclass(frozen=True)
class Calibration:
    """A constant form together with its certified comass and metadata."""
    form: ExteriorElement
    name: str
    claimed_comass: float = 1.0
    grassmannian_hint: str | None = None
    normal_flag: bool | None = None

    @property
    def n(self):
        return self.form.n

    @property
    def p(self):
        return self.form.p

    def to_json(self):
        return {"name": self.name, "claimed_comass": self.claimed_comass,
                "grassmannian_hint": self.grassmannian_hint,
                "normal_flag": self.normal_flag,
                "form": form_to_json(self.form)}


# ---------------------------------------------------------------------------
# coordinate conventions: R^{2n} carries interleaved coordinates
# (x1, y1, x2, y2, ...); the complex structure J maps x_k -> y_k.
# ---------------------------------------------------------------------------

def complex_structure(n_complex: int) -> np.ndarray:
    """J on R^{2n} in interleaved coordinates: J e_{2k-1} = e_{2k}."""
    n = 2 * n_complex
    J = np.zeros((n, n))
    for k in range(n_complex):
        J[2 * k + 1, 2 * k] = 1.0
        J[2 * k, 2 * k + 1] = -1.0
    return J


def kaehler_2form(n_complex: int) -> ExteriorElement:
    n = 2 * n_complex
    coeffs = {(2 * k + 1, 2 * k + 2): 1.0 for k in range(n_complex)}
    return ExteriorElement(n, 2, coeffs)


def _kaehler_power(n_complex: int, power: int) -> ExteriorElement:
    omega = kaehler_2form(n_complex)
    out = ExteriorElement(2 * n_complex, 0, {(): 1.0})
    for _ in range(power):
        out = wedge(out, omega)
    fact = 1.0
    for k in range(2, power + 1):
        fact *= k
    return (1.0 / fact) * out


def _special_lagrangian(n_complex: int) -> ExteriorElement:
    """Re(dz1 ^ ... ^ dzn), dz_k = dx_k + i dy_k, in interleaved coordinates."""
    n = 2 * n_complex
    re, im = ExteriorElement(n, 0, {(): 1.0}), ExteriorElement.zero(n, 0)
    for k in range(n_complex):
        dx = ExteriorElement.basis(n, (2 * k + 1,))
        dy = ExteriorElement.basis(n, (2 * k + 2,))
        re, im = wedge(re, dx) - wedge(im, dy), wedge(re, dy) + wedge(im, dx)
    return re


_ASSOCIATIVE = {
    (1, 2, 3): 1.0, (1, 4, 5): 1.0, (1, 6, 7): 1.0, (2, 4, 6): 1.0,
    (2, 5, 7): -1.0, (3, 4, 7): -1.0, (3, 5, 6): -1.0,
}

_CAYLEY = {
    (1, 2, 3, 4): 1.0, (1, 2, 5, 6): 1.0, (1, 2, 7, 8): 1.0,
    (1, 3, 5, 7): 1.0, (1, 3, 6, 8): -1.0, (1, 4, 5, 8): -1.0,
    (1, 4, 6, 7): -1.0, (2, 3, 5, 8): -1.0, (2, 3, 6, 7): -1.0,
    (2, 4, 5, 7): -1.0, (2, 4, 6, 8): 1.0, (3, 4, 5, 6): 1.0,
    (3, 4, 7, 8): 1.0, (5, 6, 7, 8): 1.0,
}


def quaternionic_structure(n_quat: int) -> tuple:
    """(I, J, K) on R^{4n} with per-block coordinates (x0, x1, x2, x3) for
    q = x0 + x1 i + x2 j + x3 k: orthogonal, I^2 = J^2 = K^2 = -1 and
    IJ = K.  Each is minus the skew matrix of its Kaehler form wI, wJ, wK,
    so that wI(v, Iv) = |v|^2."""
    n = 4 * n_quat
    mats = np.zeros((3, n, n))
    for b in range(n_quat):
        o = 4 * b
        for m, (i, j), s in ((0, (0, 1), 1.0), (0, (2, 3), 1.0),
                             (1, (0, 2), 1.0), (1, (1, 3), -1.0),
                             (2, (0, 3), 1.0), (2, (1, 2), 1.0)):
            mats[m, o + j, o + i] = s
            mats[m, o + i, o + j] = -s
    return tuple(mats)


def _quaternionic(n_quat: int) -> ExteriorElement:
    """(wI^2 + wJ^2 + wK^2)/6 on R^{4n}, wI, wJ, wK the Kaehler forms of
    `quaternionic_structure`."""
    n = 4 * n_quat
    total = ExteriorElement.zero(n, 4)
    for M in quaternionic_structure(n_quat):
        el = ExteriorElement(n, 2, {(i + 1, j + 1): -M[i, j]
                                    for i, j in zip(*np.nonzero(np.triu(M)))})
        total = total + wedge(el, el)
    return (1.0 / 6.0) * total


@lru_cache(maxsize=None)
def catalogue(name: str, *params) -> Calibration:
    """Build a catalogue calibration.

    Names: kaehler(n,p) [omega^p/p! on C^n], special_lagrangian(n),
    associative, coassociative, cayley, quaternionic(n),
    lambda_example(lam), volume(n).
    """
    if name == "kaehler":
        nc, power = int(params[0]), int(params[1])
        if not (1 <= power <= nc):
            raise ValueError(f"kaehler power {power} out of range for C^{nc}")
        hint = "complex lines" if power == 1 else f"complex {power}-planes"
        return Calibration(_kaehler_power(nc, power),
                           f"kaehler({nc},{power})",
                           grassmannian_hint=hint, normal_flag=True)
    if name == "special_lagrangian":
        nc = int(params[0])
        return Calibration(_special_lagrangian(nc),
                           f"special_lagrangian({nc})",
                           grassmannian_hint="special Lagrangian planes",
                           normal_flag=True)
    if name == "associative":
        return Calibration(ExteriorElement(7, 3, _ASSOCIATIVE), "associative",
                           grassmannian_hint="associative 3-planes",
                           normal_flag=True)
    if name == "coassociative":
        return Calibration(hodge_star(ExteriorElement(7, 3, _ASSOCIATIVE)),
                           "coassociative",
                           grassmannian_hint="coassociative 4-planes",
                           normal_flag=True)
    if name == "cayley":
        return Calibration(ExteriorElement(8, 4, _CAYLEY), "cayley",
                           grassmannian_hint="Cayley 4-planes",
                           normal_flag=True)
    if name == "quaternionic":
        nq = int(params[0])
        return Calibration(_quaternionic(nq), f"quaternionic({nq})",
                           grassmannian_hint="quaternionic lines",
                           normal_flag=True)
    if name == "lambda_example":
        lam = float(params[0])
        if abs(lam) >= 1.0:
            raise ValueError(
                f"lambda_example requires |lambda| < 1, got {lam} "
                "(|lambda| = 1 would break the singleton Grassmannian)")
        form = ExteriorElement(4, 2, {(1, 2): 1.0, (3, 4): lam})
        return Calibration(form, f"lambda_example({lam:g})",
                           grassmannian_hint="single plane {1,2}")
    if name == "volume":
        n = int(params[0])
        form = ExteriorElement(n, n, {tuple(range(1, n + 1)): 1.0})
        return Calibration(form, f"volume({n})",
                           grassmannian_hint=f"single plane {{1..{n}}}")
    raise ValueError(f"unknown calibration name '{name}'")


CATALOGUE_SPECS = [
    ("kaehler", (2, 1)),
    ("kaehler", (3, 1)),
    ("kaehler", (3, 2)),
    ("special_lagrangian", (2,)),
    ("special_lagrangian", (3,)),
    ("associative", ()),
    ("coassociative", ()),
    ("cayley", ()),
    ("quaternionic", (1,)),
    ("quaternionic", (2,)),
    ("lambda_example", (0.5,)),
    ("volume", (3,)),
    ("volume", (4,)),
]

_ALIASES = {
    "omega4": ("kaehler", (2, 1)),
    "omega6": ("kaehler", (3, 1)),
}


def resolve(spec: str) -> Calibration:
    """Resolve a CLI calibration selector.

    Accepts catalogue selectors like 'kaehler:2,1', 'lambda:0.5',
    'associative', the alias 'omega4', or a path to a JSON form spec.
    """
    spec = spec.strip()
    if spec in _ALIASES:
        name, params = _ALIASES[spec]
        return catalogue(name, *params)
    if os.path.exists(spec) or spec.endswith(".json"):
        with open(spec) as fh:
            data = json.load(fh)
        if "form" in data:
            form = form_from_json(data["form"])
            claimed = float(data.get("claimed_comass", 1.0))
            if not np.isfinite(claimed):
                raise ValueError("claimed_comass must be finite")
            return Calibration(form, data.get("name", os.path.basename(spec)),
                               claimed_comass=claimed,
                               grassmannian_hint=data.get("grassmannian_hint"),
                               normal_flag=data.get("normal_flag"))
        form = form_from_json(data)
        return Calibration(form, os.path.basename(spec))
    if ":" in spec:
        name, _, arg = spec.partition(":")
        params = tuple(float(a) if "." in a else int(a)
                       for a in arg.split(",") if a)
        if name == "lambda":
            name = "lambda_example"
        return catalogue(name, *params)
    return catalogue(spec)


def list_catalogue():
    """(name, n, p, term count) for every stock entry."""
    rows = []
    for name, params in CATALOGUE_SPECS:
        cal = catalogue(name, *params)
        rows.append((cal.name, cal.n, cal.p, len(cal.form.coeffs)))
    return rows
