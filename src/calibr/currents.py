"""Polyhedral p-currents in R^n: mass, boundary, evaluation against
polynomial-coefficient forms, positivity versus a calibration, the
calibration/mass identity, and the discrete Green's-current machinery
(cotangent Laplacian, harmonic measure, Poisson-Jensen residuals) on
triangulated flat discs inside a single phi-plane.

Meshes are stored with exact vertex coordinates; all the built-in
generators are deterministic.  The Green machinery is limited to p = 2,
where the cotangent Laplacian comes with the exact logarithmic Green's
function of the round disc as a reference solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibrations import Calibration
from .exterior import (ExteriorElement, _sort_sign, compound,
                       derivation_tensor, lex_indices, simple_from_frame)
from .fields import ScalarField
from .hessian import d_phi, pluriharmonic_mod_d_residual, psh_classify
from .polynomial import (PolyForm, Polynomial, monomial_exponents,
                         simplex_monomial_means)

VOLUME_TOL = 1e-12
BOUNDS_TOL = 1e-9      # maximum principle: slack past the boundary range


# ---------------------------------------------------------------------------
# polyhedral currents
# ---------------------------------------------------------------------------

def _simplex_geometry(V):
    """Unit tangent p-vectors, as (N, C(n,p)) lex coefficient rows, and
    p-volumes of an (N, p+1, n) stack of ordered simplices.  The rows are
    the p x p minors of each edge frame over |e1 ^ .. ^ ep| (zero for a
    degenerate simplex); the volumes equal ``simplex_volume``'s bit for bit.
    """
    V = np.asarray(V, dtype=float)
    p = V.shape[1] - 1
    E = V[:, 1:] - V[:, :1]
    gram = E @ E.transpose(0, 2, 1)
    vols = np.sqrt(np.maximum(np.linalg.det(gram), 0.0)) / math.factorial(p)
    minors = compound(E, p)[:, 0]
    norms = np.linalg.norm(minors, axis=1, keepdims=True)
    return minors / np.where(norms > 0.0, norms, 1.0), vols


class PolyhedralCurrent:
    """Weighted oriented p-simplices in R^n; the vertices, tangents, volumes
    and multiplicities of the kept simplices are arrays in ``simplices``
    order."""

    def __init__(self, n, p, simplices):
        self.n = int(n)
        self.p = int(p)
        shape = (self.p + 1, self.n)
        verts, mults = [], []
        for v, mult in simplices:
            verts.append(np.asarray(v, dtype=float))
            if verts[-1].shape != shape:
                break
            mults.append(float(mult))
        # zero multiplicities are dropped unchecked; a degenerate simplex is
        # reported before a later misshapen one
        mults = np.array(mults)
        keep = np.flatnonzero(mults)
        self._vertices = np.reshape(verts[:len(mults)], (-1, *shape))[keep]
        self._tangents, self._volumes = _simplex_geometry(self._vertices)
        self._mults = mults[keep]
        degenerate = keep[self._volumes <= VOLUME_TOL]
        if degenerate.size:
            raise ValueError(f"simplex {degenerate[0]} is degenerate")
        if len(verts) > len(mults):
            raise ValueError(f"simplex {len(mults)}: expected {shape} "
                             f"vertex array, got {verts[-1].shape}")
        self.simplices = [(verts[k], mults[k].item()) for k in keep]

    def __len__(self):
        return len(self.simplices)


def _signed_faces(S, weights):
    """The (p-1)-faces of the (N, p+1) vertex-index simplices S as sorted
    index rows in first-seen order, each with the total over its incidences
    of the simplex's weight times the orientation sign, a rounding bound of
    that total (eps times the incidence count times the sum of the
    magnitudes added), and whether it has a repeated vertex (then its row
    is -1 and its total and bound 0); one array pass."""
    N, q = S.shape
    # faces in (simplex, dropped vertex) order, signed (-1)^drop
    keep = np.nonzero(~np.eye(q, dtype=bool))[1]
    F, sign = _sort_sign(S[:, keep].reshape(N * q, q - 1))
    sign *= np.tile(1 - 2 * (np.arange(q) % 2), N)
    repeated = sign == 0
    F[repeated] = -1
    keys, first, inv = np.unique(F, axis=0, return_index=True,
                                 return_inverse=True)
    terms = sign * np.repeat(weights, q)
    totals, magnitudes, counts = (
        np.bincount(inv.ravel(), weights=w, minlength=len(keys))
        for w in (terms, np.abs(terms), None))
    bound = np.finfo(float).eps * counts * magnitudes
    order = np.argsort(first)
    return keys[order], totals[order], bound[order], repeated[first[order]]


def boundary(T: PolyhedralCurrent) -> PolyhedralCurrent:
    """Alternating-sign faces with multiplicities; a face whose total is
    within the rounding bound of the multiplicities added into it cancels.

    Faces are matched on exact vertex coordinates (-0.0 and 0.0 are one),
    so shared faces must be built from equal floats (all built-in
    generators guarantee this).  The boundary of a boundary cancels by
    construction of the face map.
    """
    if T.p == 0:
        raise ValueError("boundary of a 0-current")
    # vertex ids in the byte order of the coordinates, with -0.0 read as 0.0
    V = T._vertices.reshape(-1, T.n) + 0.0
    _, first, ids = np.unique(V.view(np.dtype((np.void, V.itemsize * T.n))),
                              return_index=True, return_inverse=True)
    faces, mults, bound, _ = _signed_faces(ids.reshape(-1, T.p + 1),
                                           T._mults)
    keep = np.abs(mults) > bound
    return PolyhedralCurrent(T.n, T.p - 1,
                             zip(V[first][faces[keep]], mults[keep]))


def mass(T: PolyhedralCurrent) -> float:
    """Total variation: weighted p-volume."""
    return float(np.abs(T._mults) @ T._volumes)


def evaluate(T: PolyhedralCurrent, alpha) -> float:
    """Integrate alpha over the current: sum of per-simplex integrals of
    alpha(tangent) against p-volume, times multiplicities.

    Constant forms integrate in closed form; polynomial-coefficient forms
    through the monomial means of every simplex, exact at any degree.
    """
    if not isinstance(alpha, (ExteriorElement, PolyForm)):
        raise TypeError("alpha must be an ExteriorElement or a PolyForm")
    if alpha.p != T.p or alpha.n != T.n:
        raise ValueError("form degree/dimension mismatch")
    weights = T._mults * T._volumes
    if isinstance(alpha, ExteriorElement):
        return float(weights @ (T._tangents @ alpha.to_coeff_vector()))
    # the coefficients of alpha(tangent) over the monomials of alpha, times
    # the monomials' means, for every simplex at once
    monos = list(dict.fromkeys(e for q in alpha.comps.values()
                               for e in q.terms))
    zero = Polynomial(T.n)
    rows = T._tangents @ np.array(
        [[alpha.comps.get(idx, zero).terms.get(e, 0.0) for e in monos]
         for idx in lex_indices(T.n, T.p)])
    means = simplex_monomial_means(T._vertices, monos)
    return float(weights @ (rows * means).sum(axis=1))


def _phi_violations(T: PolyhedralCurrent, cal: Calibration):
    """phi on every tangent of T, and the simplices with a negative
    multiplicity or a phi-value below 1 - 1e-9."""
    if cal.form.p != T.p or cal.form.n != T.n:
        raise ValueError("form degree/dimension mismatch")
    vals = T._tangents @ cal.form.to_coeff_vector()
    return vals, np.flatnonzero((T._mults < 0.0) | (vals < 1.0 - 1e-9))


def phi_positive_check(T: PolyhedralCurrent, cal: Calibration):
    """Positive iff every positively weighted tangent is a phi-plane and no
    multiplicity is negative; violations come back with their phi-values."""
    vals, bad = _phi_violations(T, cal)
    rows = zip(bad.tolist(), vals[bad].tolist(), T._mults[bad].tolist())
    violations = [{"index": k, "phi": v, "multiplicity": m} for k, v, m in rows]
    return {"positive": not violations, "violations": violations}


def calibration_gap(T: PolyhedralCurrent, cal: Calibration):
    """T(phi), the mass, and their gap (nonnegative by the comass bound;
    zero exactly on phi-positive currents); T(phi) and ``positive`` come
    from the phi-values and the test of ``phi_positive_check``."""
    vals, bad = _phi_violations(T, cal)
    tphi = float((T._mults * T._volumes) @ vals)
    m = mass(T)
    return {"tphi": tphi, "mass": m, "gap": m - tphi, "positive": not bad.size}


# ---------------------------------------------------------------------------
# vertex-indexed meshes
# ---------------------------------------------------------------------------

class MeshedSubmanifold:
    """Triangulated submanifold candidate: shared-vertex simplices whose
    tangent planes all calibrate within flatness_tol."""

    def __init__(self, vertices, simplices, cal: Calibration = None,
                 flatness_tol=1e-9, validate=True):
        self.vertices = np.asarray(vertices, dtype=float)
        self.simplices = np.asarray(simplices, dtype=int)
        self.n = self.vertices.shape[1]
        self.p = self.simplices.shape[1] - 1
        self.cal = cal
        self.flatness_tol = flatness_tol
        self._counts = None
        if validate:
            self._validate_orientations()
            if cal is not None:
                self._validate_flatness()

    def _face_counts(self):
        """Signed incidence count of every (p-1)-face, keyed by its sorted
        vertex tuple in first-seen order (None for a face with a repeated
        vertex); computed once.  Boundary faces have nonzero counts."""
        if self._counts is None:
            faces, counts, _, repeated = _signed_faces(
                self.simplices, np.ones(len(self.simplices)))
            self._counts = {None if r else tuple(f): int(c) for f, c, r in
                            zip(faces.tolist(), counts.tolist(),
                                repeated.tolist())}
        return self._counts

    def _validate_orientations(self):
        bad = [k for k, c in self._face_counts().items() if abs(c) > 1]
        if bad:
            raise ValueError(f"inconsistent orientations on faces {bad[:3]}")

    def _validate_flatness(self):
        xi, vols = _simplex_geometry(self.vertices[self.simplices])
        vals = xi @ self.cal.form.to_coeff_vector()
        bad = np.flatnonzero((vols <= 0.0) | (vals < 1.0 - self.flatness_tol))
        if bad.size:
            k = bad[0]
            if vols[k] <= 0.0:
                raise ValueError("degenerate simplex")
            raise ValueError(
                f"simplex {k} tangent has phi-value {vals[k]:.6f}, below "
                f"1 - {self.flatness_tol:g}")

    def boundary_vertices(self):
        return sorted({v for face, _ in self.boundary_edges() for v in face})

    def interior_vertices(self):
        bnd = set(self.boundary_vertices())
        return [i for i in range(len(self.vertices)) if i not in bnd]

    def boundary_edges(self):
        """Oriented boundary (p-1)-faces with their orientation signs."""
        return [(k, c) for k, c in self._face_counts().items() if c != 0]

    def to_current(self) -> PolyhedralCurrent:
        simp = [(self.vertices[tri], 1.0) for tri in self.simplices]
        return PolyhedralCurrent(self.n, self.p, simp)


# ---------------------------------------------------------------------------
# deterministic mesh generators (p = 2)
# ---------------------------------------------------------------------------

def hex_disc_points(m: int):
    """Hexagonal triangulation of the unit disc with m concentric rings.

    Returns (points2d, triangles); boundary vertices sit exactly on the unit
    circle.  All triangles are positively oriented and near-equilateral, so
    every cotangent weight is positive.
    """
    if m < 1:
        raise ValueError("need at least one ring")
    pts = [(0.0, 0.0)]
    ring_start = [0, 1]
    for k in range(1, m + 1):
        r = k / m
        for j in range(6 * k):
            a = 2.0 * math.pi * j / (6 * k)
            pts.append((r * math.cos(a), r * math.sin(a)))
        ring_start.append(ring_start[-1] + 6 * k)
    tris = []
    # center fan
    for j in range(6):
        tris.append((0, 1 + j, 1 + (j + 1) % 6))
    # annuli
    for k in range(1, m):
        inner0, outer0 = ring_start[k], ring_start[k + 1]
        ni, no = 6 * k, 6 * (k + 1)
        for s in range(6):
            for j in range(k + 1):
                o1 = outer0 + (s * (k + 1) + j) % no
                o2 = outer0 + (s * (k + 1) + j + 1) % no
                i1 = inner0 + (s * k + j) % ni
                tris.append((i1, o1, o2))
            for j in range(k):
                i1 = inner0 + (s * k + j) % ni
                i2 = inner0 + (s * k + j + 1) % ni
                o2 = outer0 + (s * (k + 1) + j + 1) % no
                tris.append((i1, o2, i2))
    return np.array(pts), np.array(tris, dtype=int)


def disc_mesh(m: int, n=4, cal: Calibration = None) -> MeshedSubmanifold:
    """Flat unit disc in the x1y1 coordinate plane of R^n, m rings."""
    pts, tris = hex_disc_points(m)
    frame = np.zeros((2, n))
    frame[0, 0] = 1.0
    frame[1, 1] = 1.0
    # adding 0.0 turns every -0.0 of the product into 0.0
    return MeshedSubmanifold(0.0 + pts @ frame, tris, cal)


def tilted_disc_mesh(m: int, theta: float, cal: Calibration = None):
    """Unit disc in the plane span{e1, cos(theta) e2 + sin(theta) e3}."""
    pts, tris = hex_disc_points(m)
    frame = np.zeros((2, 4))
    frame[0, 0] = 1.0
    frame[1, 1] = math.cos(theta)
    frame[1, 2] = math.sin(theta)
    return MeshedSubmanifold(0.0 + pts @ frame, tris, cal)


def graph_curve_mesh(m: int, cal: Calibration = None) -> MeshedSubmanifold:
    """Mesh of the holomorphic graph z2 = z1^2 over the unit disc in C^2
    (interleaved coordinates x1,y1,x2,y2)."""
    pts, tris = hex_disc_points(m)
    u, v = pts[:, 0], pts[:, 1]
    verts = np.column_stack([u, v, u * u - v * v, 2 * u * v])
    return MeshedSubmanifold(verts, tris, cal, flatness_tol=5e-2)


def cap_mesh(m: int, height: float, n=4) -> MeshedSubmanifold:
    """Spherical cap with the unit circle of the x1y1-plane as its rim,
    bulging into coordinate 3; cap height is the apex offset.  Shares its
    rim vertices with disc_mesh(m) exactly."""
    pts, tris = hex_disc_points(m)
    R = (1.0 + height ** 2) / (2.0 * height)
    r2 = (pts ** 2).sum(axis=1)
    lift = np.sqrt(np.maximum(R * R - r2, 0.0)) - (R - height)
    rim = np.isclose(r2, 1.0, atol=1e-12)
    lift[rim] = 0.0
    verts = np.zeros((len(pts), n))
    verts[:, 0] = pts[:, 0]
    verts[:, 1] = pts[:, 1]
    verts[:, 2] = lift
    return MeshedSubmanifold(verts, tris)


# ---------------------------------------------------------------------------
# mesh file IO: header "n p", vertex lines "v x1 .. xn",
# simplex lines "s i0 .. ip mult" (0-based indices)
# ---------------------------------------------------------------------------

def write_mesh(path, M: MeshedSubmanifold):
    with open(path, "w") as fh:
        fh.write(f"{M.n} {M.p}\n")
        for v in M.vertices:
            fh.write("v " + " ".join(repr(float(x)) for x in v) + "\n")
        for tri in M.simplices:
            fh.write("s " + " ".join(str(int(i)) for i in tri) + " 1\n")


def read_mesh(path, cal: Calibration = None):
    verts, tris, where = [], [], []
    with open(path) as fh:
        lines = fh.readlines() or [""]
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        try:
            if lineno == 1:
                if len(parts) != 2:
                    raise ValueError("expected header 'n p'")
                n, p = int(parts[0]), int(parts[1])
                if not 1 <= p <= n:
                    raise ValueError(f"header needs 1 <= p <= n, got "
                                     f"n = {n}, p = {p}")
            elif not parts or parts[0].startswith("#"):
                continue
            elif parts[0] == "v":
                if len(parts) != n + 1:
                    raise ValueError(f"vertex needs {n} coords")
                verts.append([float(x) for x in parts[1:]])
            elif parts[0] == "s":
                if len(parts) != p + 3:
                    raise ValueError(f"simplex needs {p + 1} indices + mult")
                idx = [int(i) for i in parts[1:p + 2]]
                if float(parts[-1]) != 1.0:
                    raise ValueError("submanifold meshes need unit "
                                     "multiplicity")
                tris.append(idx)
                where.append(lineno)
            else:
                raise ValueError(f"unknown record '{parts[0]}'")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    for kind, found in (("vertex", verts), ("simplex", tris)):
        if not found:
            raise ValueError(f"{path}: no {kind} lines")
    for idx, lineno in zip(tris, where):
        if not all(0 <= i < len(verts) for i in idx):
            raise ValueError(f"{path}:{lineno}: vertex index outside "
                             f"[0, {len(verts)})")
    return MeshedSubmanifold(np.array(verts), np.array(tris, dtype=int), cal)


# ---------------------------------------------------------------------------
# cotangent Laplacian
# ---------------------------------------------------------------------------

def cotan_laplacian(vertices, triangles):
    """Sparse stiffness matrix L with (Lu)_i = sum_j w_ij (u_i - u_j) and
    barycentric lumped vertex areas."""
    import scipy.sparse as sp
    V = np.asarray(vertices, dtype=float)
    T = np.asarray(triangles, dtype=int).reshape(-1, 3)
    nv = len(V)
    _, area = _simplex_geometry(V[T])
    areas = np.bincount(T.ravel(), np.repeat(area / 3.0, 3), minlength=nv)
    # the angle at corner C = T[s+2] faces the edge (A, B) = (T[s], T[s+1]);
    # at every corner |u ^ v| is twice the triangle's area
    A, B, C = T, np.roll(T, -1, axis=1), np.roll(T, -2, axis=1)
    u, v = V[A] - V[C], V[B] - V[C]
    w = 0.5 * (u * v).sum(axis=2) / np.maximum(2.0 * area, 1e-300)[:, None]
    L = sp.csr_matrix((np.concatenate([-w, -w, w, w], axis=None),
                       (np.concatenate([A, B, A, B], axis=None),
                        np.concatenate([B, A, A, B], axis=None))),
                      shape=(nv, nv))
    return L, areas


def discrete_laplacian_values(M: MeshedSubmanifold, f: ScalarField):
    """(interior indices, Laplace-Beltrami values) with cotan weights over
    lumped areas; positive for subharmonic restrictions."""
    L, areas = cotan_laplacian(M.vertices, M.simplices)
    fv = np.array([f(v) for v in M.vertices])
    interior = M.interior_vertices()
    lap = -(L @ fv)
    return interior, np.array([lap[i] / areas[i] for i in interior])


# ---------------------------------------------------------------------------
# Green's current checks on a flat disc in a single phi-plane
# ---------------------------------------------------------------------------

def _plane_coordinates(M: MeshedSubmanifold):
    """Orthonormal 2-frame of the mesh plane, its unit 2-vector oriented by
    the first simplex, and the 2D vertex coordinates; raises when the mesh
    is not flat inside one plane."""
    tri0 = M.vertices[M.simplices[0]]
    plane, xi = simple_from_frame(tri0[1:] - tri0[0])
    frame = plane.frame                       # (2, n) rows
    origin = M.vertices[0]
    rel = M.vertices - origin
    coords = rel @ frame.T
    recon = coords @ frame
    off = np.abs(rel - recon).max()
    if off > 1e-9 * max(1.0, np.abs(M.vertices).max()):
        raise ValueError(f"mesh leaves its plane by {off:.2e}")
    return frame, xi, coords


def _hessian_pair_poly(f: ScalarField, cal: Calibration, xi: ExteriorElement,
                       frame, origin):
    """The scalar z -> (Hess f extended into phi)(xi) at ambient point
    origin + z.frame, as a 2D polynomial; f must be polynomial."""
    if f.poly is None:
        raise ValueError(f"test field {f.name!r} is not polynomial")
    n = cal.n
    K = (derivation_tensor(n, cal.p) @ cal.form.to_coeff_vector()
         @ xi.to_coeff_vector())
    q = Polynomial.constant(2, 0.0)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if K[i - 1, j - 1] == 0.0:
                continue
            hij = f.poly.partial(i).partial(j)
            if not hij.terms:
                continue
            q = q + K[i - 1, j - 1] * hij.substitute_linear(frame, origin)
    return q


_GAUSS_T, _GAUSS_W = np.polynomial.legendre.leggauss(24)
FAN_BLOCK = 8192          # sectors per pass of the log-kernel moments


def _log_moments(P, degree):
    """Integrals of -(1/2pi) log|w| w^alpha over all triangles of the
    (N, 3, 2) stack P of pole-centred vertices, summed, for the alpha of
    ``monomial_exponents(2, degree)``.

    Each triangle is the signed fan of sectors (0, a, b) over its oriented
    edges, taken FAN_BLOCK sectors at a time so that memory stays bounded.
    A sector takes a 24-node angular Gauss rule; along the ray w = r u,
    w^alpha = u^alpha r^|alpha| and the radial integral up to the chord is
    exact.  A sliver sector (the pole on the line through a and b)
    contributes zero.
    """
    a = P.reshape(-1, 2)
    b = np.roll(P, -1, axis=1).reshape(-1, 2)
    out = np.zeros((degree + 1) * (degree + 2) // 2)
    for s in range(0, len(a), FAN_BLOCK):
        out += _sector_moments(a[s:s + FAN_BLOCK], b[s:s + FAN_BLOCK], degree)
    return -out / (2.0 * math.pi)


def _sector_moments(a, b, degree):
    """Unnormalized log-kernel moments of the sectors (0, a, b), summed."""
    na, nb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    keep = np.abs(cross) > 1e-13 * (na * nb + 1e-300)
    a, b, na, nb, cross = a[keep], b[keep], na[keep], nb[keep], cross[keep]
    alpha = np.arctan2(a[:, 1], a[:, 0])
    delta = np.arctan2(b[:, 1], b[:, 0]) - alpha
    delta = np.where(delta <= -math.pi, delta + 2 * math.pi, delta)
    delta = np.where(delta > math.pi, delta - 2 * math.pi, delta)
    # distance from the pole to the chord line, and the chord's unit normal
    # pointing away from the pole
    e = b - a
    ne = np.linalg.norm(e, axis=1)
    d = np.abs(cross) / ne
    nrm = np.column_stack([-e[:, 1], e[:, 0]]) / ne[:, None]
    nrm[(nrm * a).sum(axis=1) < 0] *= -1.0
    R_cap = 2.0 * np.maximum(na, nb)          # R never exceeds the chord reach
    theta = alpha[:, None] + delta[:, None] * (_GAUSS_T + 1.0) / 2.0
    u1, u2 = np.cos(theta), np.sin(theta)
    R = np.minimum(d[:, None] / np.maximum(nrm[:, :1] * u1 + nrm[:, 1:] * u2,
                                           1e-300), R_cap[:, None])
    logR = np.log(R)
    weight = (delta / 2.0)[:, None] * _GAUSS_W
    pow1, pow2 = ([u ** i for i in range(degree + 1)] for u in (u1, u2))
    out = []
    for k in range(degree + 1):
        kk = k + 2
        radial = weight * R ** kk * (logR / kk - 1.0 / kk ** 2)
        out += [np.sum(radial * pow1[i] * pow2[k - i])
                for i in range(k, -1, -1)]
    return np.array(out)


@dataclass
class GreenResult:
    residuals: dict
    mu: np.ndarray
    mu_indices: list
    exact_disc: bool
    green_values: np.ndarray
    meta: dict = field(default_factory=dict)


def green_check(M: MeshedSubmanifold, x_index: int, tests,
                cal: Calibration) -> GreenResult:
    """Residuals of the weak Poisson-Jensen identity on a flat meshed disc.

    Builds the nonnegative Green's function vanishing on the boundary (exact
    log profile on the round disc centered at x, discrete cotangent solve
    otherwise), the harmonic measure from the discrete boundary normal
    derivative, and for each polynomial test f compares the current paired
    with the second-order operator of f against the measure-minus-Dirac
    evaluation.  The pairing is the dot product of that operator's
    coefficients about x with one table of log-kernel moments.
    """
    frame, xi_M, coords = _plane_coordinates(M)
    interior = M.interior_vertices()
    if x_index not in interior:
        raise ValueError(f"vertex {x_index} is not interior")
    boundary_idx = M.boundary_vertices()
    if not boundary_idx:
        raise ValueError("mesh has no boundary")
    zx = coords[x_index]
    qs = [_hessian_pair_poly(f, cal, xi_M, frame, M.vertices[0] + zx @ frame)
          for f in tests]
    r_bnd = np.linalg.norm(coords[boundary_idx] - zx[None, :], axis=1)
    exact_disc = bool(np.abs(r_bnd - 1.0).max() < 1e-9)

    # discrete solve: L G = delta_x with zero boundary values
    import scipy.sparse.linalg as spla
    L, _ = cotan_laplacian(M.vertices, M.simplices)
    rhs = (np.asarray(interior) == x_index).astype(float)
    G = np.zeros(len(M.vertices))
    G[interior] = spla.spsolve(L[interior, :][:, interior].tocsc(), rhs)
    # connectivity sanity: a disconnected interior leaves zeros behind
    if not np.all(np.isfinite(G)):
        raise ValueError("disconnected mesh: Laplace solve failed")

    # harmonic measure from the discrete boundary normal derivative
    flux = np.asarray(L @ G).ravel()
    mu = -flux[boundary_idx]
    mu_sum = mu.sum()
    meta = {"mu_min": float(mu.min()), "mu_sum": float(mu_sum),
            "green_min": float(G.min())}
    mu = np.maximum(mu, 0.0)
    mu = mu / mu.sum()

    # moments of w^alpha, w = z - x, against G = S + H with S the log
    # profile; in exact mode H = 0
    degree = max((q.degree() for q in qs), default=0)
    exps = monomial_exponents(2, degree)
    P = coords[M.simplices] - zx
    moments = _log_moments(P, degree)
    if not exact_disc:
        S_vals = np.zeros(len(M.vertices))
        r_all = np.linalg.norm(coords - zx[None, :], axis=1)
        nz = r_all > 1e-300
        S_vals[nz] = -np.log(r_all[nz]) / (2.0 * math.pi)
        H_vals = G - S_vals
        star = M.simplices[(M.simplices == x_index).any(axis=1)]
        ring = np.unique(star[star != x_index])
        H_vals[x_index] = float(np.mean(H_vals[ring]))
        # smooth remainder: the P1 interpolant h = c0 + c1 w1 + c2 w2 of H
        # times w^alpha, from the means of w^alpha, w1 w^alpha and w2 w^alpha
        A = np.concatenate([np.ones(P.shape[:2] + (1,)), P], axis=2)
        c = np.linalg.solve(A, H_vals[M.simplices][..., None])[..., 0]
        shifted = [(i + s, j + t) for s, t in ((0, 0), (1, 0), (0, 1))
                   for i, j in exps]
        means = simplex_monomial_means(P, shifted).reshape(len(P), 3, -1)
        _, area = _simplex_geometry(P)
        moments = moments + np.einsum("t,ts,tsm->m", area, c, means)

    # one stack call per field; the mu-weighted sum stays left to right
    residuals = {}
    rim = M.vertices[boundary_idx]
    for f, q in zip(tests, qs):
        total = np.array([q.terms.get(e, 0.0) for e in exps]) @ moments
        rhs_val = sum(mu * f.poly.values_at(rim)) - f.poly(M.vertices[x_index])
        residuals[f.name] = abs(total - rhs_val)
    return GreenResult(residuals, mu, boundary_idx, exact_disc, G, meta)


# ---------------------------------------------------------------------------
# maximum principle and restriction subharmonicity
# ---------------------------------------------------------------------------

@dataclass
class MeshReport:
    ok: bool
    precondition_ok: bool
    precondition_info: dict
    details: dict


def max_principle_check(M: MeshedSubmanifold, f: ScalarField, mode: str,
                        cal: Calibration, samples=None) -> MeshReport:
    """mode='bounds': interior values within the boundary range (requires f
    pluriharmonic mod d near the mesh); mode='lemma58': for f constant on M,
    the first-order operator annihilates all boundary tangents."""
    if mode == "bounds":
        pre_info = {}
        if samples is None:
            pre_ok = False
            pre_info["reason"] = "no samples supplied for the mod-d check"
        else:
            idx = np.linspace(0, len(M.vertices) - 1, 6).astype(int)
            residuals = []
            critical = 0
            for i in idx:
                r = pluriharmonic_mod_d_residual(f, M.vertices[i], cal,
                                                 samples)
                if r.gradient_norm < 1e-8:
                    # a critical point inside the mesh breaks the mod-d
                    # decomposition on any neighborhood of M
                    critical += 1
                    continue
                residuals.append(r.residual)
            pre_info["modd_residuals"] = residuals
            pre_info["critical_probes"] = critical
            pre_ok = bool(residuals) and max(residuals) <= 1e-6 \
                and critical == 0
        fv = np.array([f(v) for v in M.vertices])
        bnd = M.boundary_vertices()
        interior = M.interior_vertices()
        lo, hi = fv[bnd].min(), fv[bnd].max()
        worst_low = float(fv[interior].min() - lo)
        worst_high = float(hi - fv[interior].max())
        ok = bool(fv[interior].min() >= lo - BOUNDS_TOL
                  and fv[interior].max() <= hi + BOUNDS_TOL)
        return MeshReport(ok, pre_ok, pre_info,
                          {"boundary_range": (float(lo), float(hi)),
                           "slack": (worst_low, worst_high)})
    if mode == "lemma58":
        fv = np.array([f(v) for v in M.vertices])
        spread = float(fv.max() - fv.min())
        pre_ok = spread <= 1e-9 * max(1.0, np.abs(fv).max())
        faces = M.vertices[np.array([face for face, _ in M.boundary_edges()],
                                    dtype=int).reshape(-1, M.p)]
        tangents, _ = _simplex_geometry(faces)
        worst = max((abs(float(d_phi(f, v.mean(axis=0), cal).to_coeff_vector()
                               @ t)) for v, t in zip(faces, tangents)),
                    default=0.0)
        return MeshReport(worst <= 1e-9, pre_ok,
                          {"value_spread_on_M": spread},
                          {"worst_boundary_pairing": worst})
    raise ValueError(f"unknown mode {mode!r}")


def restriction_subharmonicity(M: MeshedSubmanifold, f: ScalarField,
                               cal: Calibration, samples=None) -> MeshReport:
    """Discrete Laplace-Beltrami of f at interior vertices must clear -1e-6
    when f is plurisubharmonic near the mesh."""
    pre_info = {}
    if samples is not None:
        idx = np.linspace(0, len(M.vertices) - 1, 4).astype(int)
        marks = psh_classify(f, [M.vertices[i] for i in idx], cal, samples,
                             starts_limit=8, extra_starts=2)
        pre_info["psh_status"] = [m.status for m in marks]
        pre_ok = all(m.status != "NotPsh" for m in marks)
    else:
        pre_ok = False
        pre_info["reason"] = "no samples supplied for the psh check"
    interior, lap = discrete_laplacian_values(M, f)
    ok = bool(lap.min() >= -1e-6)
    return MeshReport(ok, pre_ok, pre_info,
                      {"min_laplacian": float(lap.min()),
                       "max_laplacian": float(lap.max()),
                       "interior_count": len(interior)})
