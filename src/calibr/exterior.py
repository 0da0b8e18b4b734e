"""Exact exterior algebra over R^n in the lexicographic multi-index basis.

An element holds one read-only vector of lex coefficients, for p-forms and
p-vectors alike; the Euclidean metric identifies the two, so ``pairing`` is
just the dot product of coefficient vectors.  Index tuples are 1-based and
strictly increasing, matching the JSON interchange format.  All values are
immutable after construction and every operation is pure.

One cached table of every dx_I ^ dx_J (`wedge_table`) places every product
of basis elements: the exterior product (`wedge`), the Hodge star, and,
for |I| = 1, the matrices of the two maps the calibrated operators are made
of: the contraction of a p-form by a vector (`contraction_matrix`, which
`interior_product` applies; for p = 2, the skew matrix) and the wedge with
1-forms (`wedge_matrix`).  Composed as dx_m ^ (e_l -| .) they give the
derivations of `derivation_tensor`.  Every permutation sign in the package
comes from `_sort_sign`, and every p x p minor from `_pluecker`.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache

import numpy as np

DROP_TOL = 1e-14
FRAME_TOL = 1e-10


@lru_cache(maxsize=None)
def lex_indices(n: int, p: int) -> tuple:
    """All strictly increasing p-tuples from {1..n}, lexicographic order."""
    return tuple(itertools.combinations(range(1, n + 1), p))


@lru_cache(maxsize=None)
def lex_position(n: int, p: int) -> dict:
    return {idx: k for k, idx in enumerate(lex_indices(n, p))}


def _sort_sign(rows):
    """The rows of an (N, q) integer array sorted, and the signs of the
    permutations that sort them, by inversion parity: 0 for a row with a
    repeated index."""
    rows = np.asarray(rows, dtype=int)
    a, b = np.triu_indices(rows.shape[1], 1)
    sign = 1 - 2 * ((rows[:, a] > rows[:, b]).sum(axis=1) % 2)
    sign[(rows[:, a] == rows[:, b]).any(axis=1)] = 0
    return np.sort(rows, axis=1), sign


@lru_cache(maxsize=None)
def _lex_array(n: int, p: int) -> np.ndarray:
    """Zero-based lex indices as a (C(n,p), p) integer array."""
    idx = lex_indices(n, p)
    return np.array(idx, dtype=int).reshape(len(idx), p) - 1


def _stack_dets(S):
    """Determinants of a (..., k, k) stack without LAPACK overhead for the
    tiny sizes that dominate here."""
    k = S.shape[-1]
    if k == 1:
        return S[..., 0, 0].copy()
    if k == 2:
        return S[..., 0, 0] * S[..., 1, 1] - S[..., 0, 1] * S[..., 1, 0]
    if k == 3:
        return (S[..., 0, 0] * (S[..., 1, 1] * S[..., 2, 2]
                                - S[..., 1, 2] * S[..., 2, 1])
                - S[..., 0, 1] * (S[..., 1, 0] * S[..., 2, 2]
                                  - S[..., 1, 2] * S[..., 2, 0])
                + S[..., 0, 2] * (S[..., 1, 0] * S[..., 2, 1]
                                  - S[..., 1, 1] * S[..., 2, 0]))
    if k == 4:
        # first-row expansion; the 3x3 cofactors share the six 2x2 minors
        # of the last two rows
        a, b, c = S[..., 1, :], S[..., 2, :], S[..., 3, :]
        m = {(i, j): b[..., i] * c[..., j] - b[..., j] * c[..., i]
             for i in range(4) for j in range(i + 1, 4)}
        return (S[..., 0, 0] * (a[..., 1] * m[2, 3] - a[..., 2] * m[1, 3]
                                + a[..., 3] * m[1, 2])
                - S[..., 0, 1] * (a[..., 0] * m[2, 3] - a[..., 2] * m[0, 3]
                                  + a[..., 3] * m[0, 2])
                + S[..., 0, 2] * (a[..., 0] * m[1, 3] - a[..., 1] * m[0, 3]
                                  + a[..., 3] * m[0, 1])
                - S[..., 0, 3] * (a[..., 0] * m[1, 2] - a[..., 1] * m[0, 2]
                                  + a[..., 2] * m[0, 1]))
    return np.linalg.det(S)


def _pluecker(U) -> np.ndarray:
    """Pluecker coordinate rows, the lex p x p minors, of every frame of an
    (..., n, p) stack."""
    n, p = U.shape[-2:]
    return _stack_dets(U[..., _lex_array(n, p), :])


def compound(Q, p: int) -> np.ndarray:
    """The p-th compound matrix of the (n, d) matrix Q: the (C(n,p), C(d,p))
    array of p x p minors, rows and columns in lex order; a (..., n, d)
    stack gives the stack of its compounds.

    By Cauchy-Binet it is the matrix of the pullback along Q on Lambda^p
    acting on coefficient row vectors, and for an (n, p) frame its single
    column holds the Pluecker coordinates of the frame's p-vector.
    """
    Q = np.asarray(Q, dtype=float)
    cols = Q[..., _lex_array(Q.shape[-1], p)].swapaxes(-3, -2)
    return _pluecker(cols).swapaxes(-2, -1)


@lru_cache(maxsize=None)
def wedge_table(n: int, p: int, q: int):
    """Arrays (J position, I position, position of the sorted I u J, sign)
    over every dx_I ^ dx_J = sign dx_{I u J} in Lambda^p with |I| = q and I,
    J disjoint; J runs over the lex (p-q)-tuples and I over the lex q-tuples
    within each run of one J.  For q = 1 the I position is i - 1; for p = n
    each I meets only its complement J, and sign dx_J is the star of dx_I."""
    I = _lex_array(n, q)
    J = _lex_array(n, p - q) if q <= p else np.zeros((0, 0), dtype=int)
    j, i = np.divmod(np.arange(len(J) * len(I)), len(I))
    rows, sign = _sort_sign(np.hstack([I[i], J[j]]))
    # lex order of the sorted tuples is the order of their base-n numerals
    digits = n ** np.arange(rows.shape[1])[::-1]
    c = np.searchsorted(_lex_array(n, rows.shape[1]) @ digits, rows @ digits)
    table = np.array([j, i, c, sign])[:, sign != 0]
    table.flags.writeable = False     # cached: shared by every caller
    return tuple(table)


def contraction_matrix(vec, n: int, p: int) -> np.ndarray:
    """(n, C(n,p-1)) matrix M[i - 1, J] = sign * vec[i u J] of the p-form
    phi with lex coefficients vec: v -| phi has coefficients v @ M, and for
    p = 2 M is the skew matrix with phi(u ^ v) = u^T M v.  A (..., C(n,p))
    stack of vectors gives the (..., n, C(n,p-1)) stack of their matrices."""
    vec = np.asarray(vec, dtype=float)
    j, i, c, sign = wedge_table(n, p, 1)
    M = np.zeros(vec.shape[:-1] + (n, math.comb(n, p - 1)))
    M[..., i, j] = sign * vec[..., c]
    return M


def wedge_matrix(u, n: int, p: int) -> np.ndarray:
    """(C(n,p-1), ..., C(n,p)) array W for the 1-forms with coefficient
    vectors u (n, ...): row J holds u ^ dx_J, so u ^ beta has coefficients
    beta @ W, entries at most DROP_TOL dropped as ``ExteriorElement``
    drops them."""
    u = np.asarray(u, dtype=float)
    j, i, c, sign = wedge_table(n, p, 1)
    W = np.zeros((math.comb(n, p - 1),) + u.shape[1:] + (math.comb(n, p),))
    W[j, ..., c] = (sign * u[i].T).T
    W[~(np.abs(W) > DROP_TOL)] = 0.0
    return W


@lru_cache(maxsize=None)
def derivation_tensor(n: int, p: int) -> np.ndarray:
    """Read-only (n, n, C(n,p), C(n,p)) array whose slice D[l, m] is the
    matrix, on lex coefficient vectors, of the derivation of Lambda^p
    sending dx_{l+1} to dx_{m+1} and every other dx_k to zero, that is
    dx_{m+1} ^ (e_{l+1} -| .): it pairs the wedge table rows of each J."""
    _, i, c, sign = (col.reshape(-1, n - p + 1)
                     for col in wedge_table(n, p, 1))
    D = np.zeros((n, n, math.comb(n, p), math.comb(n, p)))
    D[i[:, :, None], i[:, None, :], c[:, None, :], c[:, :, None]] = \
        sign[:, :, None] * sign[:, None, :]
    D.flags.writeable = False
    return D


class ExteriorElement:
    """Degree-p alternating tensor over R^n: its read-only vector ``vec`` of
    lex coefficients, in which every entry at most DROP_TOL in size is 0.0,
    except in an element built by ``from_coeff_vector`` with a smaller
    ``drop_tol``: the separating and dual forms of `cones` and the sigma
    fit of `pluriharmonic_mod_d_residual` keep every nonzero entry.  Both
    constructors raise on a NaN or infinite coefficient, naming its index."""

    __slots__ = ("n", "p", "vec")

    def __init__(self, n, p, coeffs=None):
        if n < 0 or p < 0 or p > n:
            raise ValueError(f"invalid degree p={p} for ambient dimension n={n}")
        self.n = int(n)
        self.p = int(p)
        vec = np.zeros(math.comb(self.n, self.p))
        for idx, c in (coeffs or {}).items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != p:
                raise ValueError(f"index tuple {idx} has wrong degree (expected {p})")
            if any(not (1 <= i <= n) for i in idx):
                raise ValueError(f"index tuple {idx} out of range [1, {n}]")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"index tuple {idx} is not strictly increasing")
            c = float(c)
            if not math.isfinite(c):
                raise ValueError(f"coefficient of {idx} must be finite, "
                                 f"got {c!r}")
            if abs(c) > DROP_TOL:
                vec[lex_position(self.n, self.p)[idx]] += c
        if coeffs:
            vec[~(np.abs(vec) > DROP_TOL)] = 0.0
        vec.flags.writeable = False
        self.vec = vec

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n, p):
        return cls(n, p)

    @classmethod
    def basis(cls, n, indices):
        """Basis element dx_{i1} ^ ... ^ dx_{ip} (indices need not be sorted)."""
        rows, sign = _sort_sign(np.reshape(tuple(indices), (1, -1)))
        if not sign[0]:
            return cls.zero(n, rows.shape[1])
        return cls(n, rows.shape[1], {tuple(rows[0].tolist()): sign[0]})

    @classmethod
    def from_vector(cls, v):
        """Degree-1 element from a coordinate vector."""
        v = np.asarray(v, dtype=float)
        return cls.from_coeff_vector(v.size, 1, v)

    @classmethod
    def from_coeff_vector(cls, n, p, vec, drop_tol=DROP_TOL):
        vec = np.asarray(vec, dtype=float).reshape(-1)
        if vec.size != math.comb(n, p):
            raise ValueError(f"coefficient vector has size {vec.size}, "
                             f"expected {math.comb(n, p)}")
        out = cls(n, p)     # checks the degree, so vec has an entry
        mag = np.abs(vec)
        if not mag.max() < np.inf:      # False for NaN too
            k = int(np.flatnonzero(~np.isfinite(vec))[0])
            raise ValueError(f"coefficient of {lex_indices(n, p)[k]} must "
                             f"be finite, got {vec[k]!r}")
        # a fresh array: entries at most drop_tol and -0.0 become 0.0
        out.vec = np.where(mag > drop_tol, vec, 0.0)
        out.vec.flags.writeable = False
        return out

    @property
    def coeffs(self):
        """{lex index tuple: coefficient} of the nonzero entries, in lex order."""
        return {idx: c for idx, c in zip(lex_indices(self.n, self.p),
                                         self.vec.tolist()) if c != 0.0}

    # -- linear structure ---------------------------------------------------

    def _check_same_space(self, other):
        if self.n != other.n or self.p != other.p:
            raise ValueError(
                f"mismatched spaces: ({self.n},{self.p}) vs ({other.n},{other.p})")

    def __add__(self, other):
        self._check_same_space(other)
        return ExteriorElement.from_coeff_vector(self.n, self.p,
                                                 self.vec + other.vec)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return ExteriorElement.from_coeff_vector(self.n, self.p,
                                                 float(scalar) * self.vec)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def norm(self):
        return math.sqrt(sum(c * c for c in self.vec.tolist()))

    def is_zero(self):
        return not self.vec.any()

    def to_coeff_vector(self):
        return self.vec.copy()

    def __repr__(self):
        if self.is_zero():
            return f"ExteriorElement({self.n},{self.p}; 0)"
        terms = " + ".join(f"{c:g}*dx{''.join(map(str, idx))}"
                           for idx, c in self.coeffs.items())
        return f"ExteriorElement({self.n},{self.p}; {terms})"

    def __eq__(self, other):
        if not isinstance(other, ExteriorElement):
            return NotImplemented
        return ((self.n, self.p) == (other.n, other.p)
                and np.array_equal(self.vec, other.vec))

    def allclose(self, other, tol=1e-12):
        self._check_same_space(other)
        return bool(np.all(np.abs(self.vec - other.vec) <= tol))


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------

def wedge(a: ExteriorElement, b: ExteriorElement) -> ExteriorElement:
    """Exterior product; bilinear and graded-anticommutative."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    if a.p + b.p > a.n:
        raise ValueError(f"degree overflow: {a.p}+{b.p} > {a.n}")
    j, i, c, sign = wedge_table(a.n, a.p + b.p, a.p)
    out = np.zeros(math.comb(a.n, a.p + b.p))
    np.add.at(out, c, sign * a.vec[i] * b.vec[j])
    return ExteriorElement.from_coeff_vector(a.n, a.p + b.p, out)


def interior_product(v, a: ExteriorElement) -> ExteriorElement:
    """Contraction v -| a; degree drops by one, antiderivation in a."""
    v = np.asarray(v, dtype=float)
    if v.size != a.n:
        raise ValueError(f"dimension mismatch: vector has {v.size}, element has {a.n}")
    if a.p < 1:
        raise ValueError("cannot contract a degree-0 element")
    return ExteriorElement.from_coeff_vector(
        a.n, a.p - 1, v.reshape(-1) @ contraction_matrix(a.vec, a.n, a.p))


def derivation_extend(A, phi: ExteriorElement) -> ExteriorElement:
    """Extend the endomorphism A of R^n to degree p as a derivation.

    Acts on each of the p slots of phi in turn; for symmetric A this is the
    map taking a Hessian to the associated p-form.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (phi.n, phi.n):
        raise ValueError(f"dimension mismatch: A is {A.shape}, expected ({phi.n},{phi.n})")
    D = derivation_tensor(phi.n, phi.p)
    vec = np.tensordot(A, D @ phi.vec, axes=2)
    return ExteriorElement.from_coeff_vector(phi.n, phi.p, vec)


def pairing(alpha: ExteriorElement, xi: ExteriorElement) -> float:
    """Euclidean pairing alpha(xi) under the orthonormal-basis identification,
    its products added in lex order."""
    if alpha.n != xi.n or alpha.p != xi.p:
        raise ValueError(
            f"mismatched spaces: ({alpha.n},{alpha.p}) vs ({xi.n},{xi.p})")
    return sum(a * b for a, b in zip(alpha.vec.tolist(), xi.vec.tolist()))


def hodge_star(a: ExteriorElement) -> ExteriorElement:
    """Hodge dual: a ^ *b = <a,b> vol for the standard orientation."""
    _, i, _, sign = wedge_table(a.n, a.n, a.p)    # one row per complement
    return ExteriorElement.from_coeff_vector(a.n, a.n - a.p, sign * a.vec[i])


# ---------------------------------------------------------------------------
# oriented planes
# ---------------------------------------------------------------------------

class SimplePlane:
    """Oriented p-plane given by an orthonormal frame (rows of ``frame``)."""

    __slots__ = ("frame", "_pvector")

    def __init__(self, frame):
        frame = np.asarray(frame, dtype=float)
        if frame.ndim != 2:
            raise ValueError("frame must be a (p, n) array of row vectors")
        p, n = frame.shape
        gram = frame @ frame.T
        if not np.allclose(gram, np.eye(p), atol=FRAME_TOL):
            raise ValueError("frame is not orthonormal within tolerance")
        self.frame = frame
        self._pvector = None

    @property
    def n(self):
        return self.frame.shape[1]

    @property
    def p(self):
        return self.frame.shape[0]

    def pvector(self) -> ExteriorElement:
        """The unit simple p-vector (Pluecker coordinates) of the plane."""
        if self._pvector is None:
            self._pvector = ExteriorElement.from_coeff_vector(
                self.n, self.p, _pluecker(self.frame.T))
        return self._pvector

    def __repr__(self):
        return f"SimplePlane(p={self.p}, n={self.n})"


def simple_from_frame(frame):
    """Orthonormalize a spanning frame preserving orientation.

    Returns (SimplePlane, unit p-vector).  Raises on rank deficiency.
    """
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2:
        frame = np.atleast_2d(frame)
    p, n = frame.shape
    q, r = np.linalg.qr(frame.T)  # columns of q span the frame
    diag = np.diag(r)
    scale = max(np.abs(frame).max(), 1.0)
    if np.any(np.abs(diag) <= 1e-12 * scale):
        raise ValueError("rank-deficient frame")
    # force positive diagonal so the orthonormal frame keeps the orientation
    signs = np.sign(diag)
    q = q * signs[None, :]
    plane = SimplePlane(q.T)
    return plane, plane.pvector()


def is_simple(xi: ExteriorElement) -> bool:
    """Pluecker criterion: (v -| xi) ^ xi = 0 for all basis vectors v, up
    to 1e-10 |xi|^2."""
    nrm2 = float(xi.vec @ xi.vec)
    if nrm2 == 0.0:
        raise ValueError("zero input")
    worst = 0.0
    for i in range(xi.n):
        v = np.zeros(xi.n)
        v[i] = 1.0
        rem = wedge(interior_product(v, xi), xi)
        worst = max(worst, rem.norm())
    return worst / nrm2 <= 1e-10


def angular_distance(a: SimplePlane, b: SimplePlane):
    """(theta_max, oriented) between two planes of the same (n, p).

    theta_max is the largest principal angle between the spans; ``oriented``
    is True when the p-vectors pair positively (same orientation class).
    """
    if a.n != b.n or a.p != b.p:
        raise ValueError("planes live in different spaces")
    sing = np.linalg.svd(a.frame @ b.frame.T, compute_uv=False)
    theta = float(np.arccos(np.clip(sing.min(), -1.0, 1.0)))
    oriented = pairing(a.pvector(), b.pvector()) > 0.0
    return theta, oriented


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def form_to_json(a: ExteriorElement) -> dict:
    terms = [{"indices": list(idx), "coeff": c}
             for idx, c in sorted(a.coeffs.items())]
    return {"n": a.n, "p": a.p, "terms": terms}


def form_from_json(data) -> ExteriorElement:
    if isinstance(data, str):
        data = json.loads(data)
    for key in ("n", "p", "terms"):
        if key not in data:
            raise ValueError(f"form spec missing required key '{key}'")
    extra = set(data) - {"n", "p", "terms"}
    if extra:
        raise ValueError(f"form spec has unknown keys {sorted(extra)}")
    n, p = int(data["n"]), int(data["p"])
    coeffs = {}
    for k, term in enumerate(data["terms"]):
        if set(term) != {"indices", "coeff"}:
            raise ValueError(f"term {k}: expected exactly 'indices' and 'coeff'")
        idx = tuple(int(i) for i in term["indices"])
        if len(idx) != p:
            raise ValueError(f"term {k}: {len(idx)} indices for degree {p}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"term {k}: indices {idx} not strictly increasing")
        if idx and (idx[0] < 1 or idx[-1] > n):
            raise ValueError(f"term {k}: indices {idx} out of range [1,{n}]")
        c = float(term["coeff"])
        if not math.isfinite(c):
            raise ValueError(f"term {k}: coefficient must be finite")
        coeffs[idx] = coeffs.get(idx, 0.0) + c
    return ExteriorElement(n, p, coeffs)
