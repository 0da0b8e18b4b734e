import math
import tracemalloc

import numpy as np
import pytest

from calibr.calibrations import catalogue
from calibr.currents import (MeshedSubmanifold, PolyhedralCurrent, boundary,
                             calibration_gap, cap_mesh, cotan_laplacian,
                             disc_mesh, evaluate, graph_curve_mesh,
                             green_check, hex_disc_points, mass,
                             max_principle_check, phi_positive_check,
                             read_mesh, restriction_subharmonicity,
                             tilted_disc_mesh, write_mesh)
from calibr.fields import BUILTIN_SET1, ScalarField, builtin_field
from calibr.grassmann import sample_grassmannian
from calibr.polynomial import PolyForm, Polynomial
from test_exterior import _sorted_sign


@pytest.fixture(scope="module")
def omega():
    return catalogue("kaehler", 2, 1)


@pytest.fixture(scope="module")
def ss_omega(omega):
    return sample_grassmannian(omega, tol=1e-6, count=30, seed=3)


def unit_square_current():
    # two triangles with the diagonal shared exactly
    v = [np.array([0.0, 0.0]), np.array([1.0, 0.0]),
         np.array([1.0, 1.0]), np.array([0.0, 1.0])]
    return PolyhedralCurrent(2, 2, [
        (np.array([v[0], v[1], v[2]]), 1.0),
        (np.array([v[0], v[2], v[3]]), 1.0)])


class TestBoundaryAndMass:
    def test_square_boundary_cancels_diagonal(self):
        T = unit_square_current()
        bd = boundary(T)
        assert len(bd) == 4
        assert abs(mass(T) - 1.0) < 1e-14

    def test_diagonal_cancels_with_a_signed_zero_vertex(self):
        # the corner (0, 0) written as (-0.0, 0.0) in the second triangle
        T = unit_square_current()
        _, v2, v3 = T.simplices[1][0]
        T = PolyhedralCurrent(2, 2, [T.simplices[0], (np.array(
            [[-0.0, 0.0], v2, v3]), 1.0)])
        bd = boundary(T)
        assert len(bd) == 4
        assert sorted(bd._volumes.tolist()) == [1.0] * 4

    def test_negative_multiplicity_mass(self):
        v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        T = PolyhedralCurrent(2, 2, [(v, -2.0)])
        assert abs(mass(T) - 1.0) < 1e-14

    def test_disc_boundary_is_rim(self, omega):
        M = disc_mesh(6, cal=omega)
        bd = boundary(M.to_current())
        assert len(bd) == 36  # 6*m rim edges

    def test_boundary_of_boundary(self, omega):
        bb = boundary(boundary(disc_mesh(5, cal=omega).to_current()))
        assert len(bb) == 0

    @pytest.mark.parametrize("low", [1e2, 1e5])
    def test_boundary_of_boundary_large_multiplicities(self, low):
        # the vertex totals of the second boundary cancel only up to the
        # rounding of the multiplicities added into them
        M = disc_mesh(4)
        mults = np.random.default_rng(0).uniform(low, 10.0 * low,
                                                 len(M.simplices))
        T = PolyhedralCurrent(4, 2, zip(M.vertices[M.simplices], mults))
        assert len(boundary(T)) == len(M.vertices) + len(M.simplices) - 1
        assert len(boundary(boundary(T))) == 0

    def test_disc_mass_converges(self, omega):
        masses = [mass(disc_mesh(m, cal=omega).to_current())
                  for m in (8, 16)]
        errs = [math.pi - v for v in masses]
        assert errs[0] > 0 and errs[1] > 0       # inscribed deficit
        assert errs[1] < errs[0] / 3.0           # O(h^2) improvement

    def test_degenerate_simplex_rejected(self):
        v = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="degenerate"):
            PolyhedralCurrent(2, 2, [(v, 1.0)])


class TestEvaluate:
    def test_constant_form_on_disc(self, omega):
        T = disc_mesh(8, cal=omega).to_current()
        assert abs(evaluate(T, omega.form) - mass(T)) < 1e-12

    def test_tilted_kaehler_angle(self, omega):
        theta = 0.7
        T = tilted_disc_mesh(8, theta).to_current()
        assert abs(evaluate(T, omega.form) -
                   math.cos(theta) * mass(T)) < 1e-12

    def test_reference_triangle_closed_form(self):
        # frozen oracle: int_T (a + b x + c y) dx^dy = a/2 + b/6 + c/6
        a, b, c = 0.7, -1.3, 2.1
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        T = PolyhedralCurrent(2, 2, [(tri, 1.0)])
        alpha = PolyForm(2, 2, {(1, 2): Polynomial(
            2, {(0, 0): a, (1, 0): b, (0, 1): c})})
        val = evaluate(T, alpha)
        assert abs(val - (a / 2 + b / 6 + c / 6)) < 1e-12

    def test_stokes_consistency(self, omega):
        T = disc_mesh(6, cal=omega).to_current()
        bd = boundary(T)
        beta = PolyForm(4, 1, {
            (2,): Polynomial.coordinate(4, 1),                    # x1 dy1
            (1,): Polynomial(4, {(0, 2, 0, 0): 0.5}),             # y1^2/2 dx1
        })
        lhs = evaluate(bd, beta)
        rhs = evaluate(T, beta.d())
        assert abs(lhs - rhs) < 1e-12
        assert abs(lhs) > 0.1    # not vacuous

    def test_degree_mismatch(self, omega):
        T = disc_mesh(4, cal=omega).to_current()
        from calibr.exterior import ExteriorElement
        with pytest.raises(ValueError):
            evaluate(T, ExteriorElement.basis(4, (1,)))


class TestPositivityAndGap:
    def test_complex_disc_positive(self, omega):
        T = disc_mesh(6, cal=omega).to_current()
        assert phi_positive_check(T, omega)["positive"]
        g = calibration_gap(T, omega)
        assert abs(g["gap"]) < 1e-12 and g["positive"]

    def test_reversed_orientation_negative(self, omega):
        M = disc_mesh(6)
        tris = M.simplices[:, [0, 2, 1]]
        T = PolyhedralCurrent(4, 2, [(M.vertices[t], 1.0) for t in tris])
        chk = phi_positive_check(T, omega)
        assert not chk["positive"]
        assert all(abs(v["phi"] + 1.0) < 1e-12 for v in chk["violations"])

    def test_lagrangian_plane_not_positive(self, omega):
        # span(e_x1, e_x2) pairs to zero with the Kaehler form
        tri = np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 0], [0.0, 0, 1.0, 0]])
        T = PolyhedralCurrent(4, 2, [(tri, 1.0)])
        chk = phi_positive_check(T, omega)
        assert not chk["positive"]
        assert abs(chk["violations"][0]["phi"]) < 1e-12

    def test_gap_never_negative(self, omega):
        for theta in (0.0, 0.4, 1.2):
            T = tilted_disc_mesh(5, theta).to_current()
            assert calibration_gap(T, omega)["gap"] >= -1e-12

    def test_disc_beats_cap_competitor(self, omega):
        # same rim, disc mass below the cap's (homological minimality)
        m, h = 10, 0.4
        disc = disc_mesh(m, cal=omega).to_current()
        cap = cap_mesh(m, h).to_current()
        assert mass(disc) < mass(cap)
        # identical rims: the boundary of the difference cancels exactly
        diff = PolyhedralCurrent(4, 2,
                                 disc.simplices +
                                 [(v, -mlt) for v, mlt in cap.simplices])
        assert len(boundary(diff)) == 0
        # meshed cap area approximates pi (1 + h^2)
        assert abs(mass(cap) - math.pi * (1 + h * h)) < 0.05


class TestMeshInfrastructure:
    def test_hex_disc_counts(self):
        pts, tris = hex_disc_points(4)
        assert len(pts) == 1 + sum(6 * k for k in range(1, 5))
        assert len(tris) == 6 * 16

    @pytest.mark.parametrize("m", range(1, 13))
    def test_hex_disc_triangles_are_positively_oriented(self, m):
        pts, tris = hex_disc_points(m)
        a, b, c = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
        area = ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
        assert len(tris) == 6 * m * m and (area > 0.0).all()

    def test_orientation_validation(self):
        M = disc_mesh(3)
        tris = M.simplices.copy()
        tris[0] = tris[0][[0, 2, 1]]  # flip one triangle
        with pytest.raises(ValueError, match="orientation"):
            MeshedSubmanifold(M.vertices, tris)

    def test_unvalidated_mesh_boundary(self, omega):
        M = disc_mesh(3, cal=omega)
        U = MeshedSubmanifold(M.vertices, M.simplices, cal=omega,
                              validate=False)
        assert U.boundary_vertices() == M.boundary_vertices()
        assert U.interior_vertices() == M.interior_vertices()
        assert sorted(U.boundary_edges()) == sorted(M.boundary_edges())
        assert len(U.boundary_vertices()) == 18        # the outer ring
        assert len(U.interior_vertices()) == 1 + 6 + 12

    def test_flatness_validation(self, omega):
        with pytest.raises(ValueError, match="phi-value"):
            tilted_disc_mesh(3, 0.5, cal=omega)

    def test_mesh_io_roundtrip(self, tmp_path, omega):
        M = disc_mesh(4, cal=omega)
        path = tmp_path / "disc.mesh"
        write_mesh(path, M)
        M2 = read_mesh(path, cal=omega)
        assert np.array_equal(M.vertices, M2.vertices)
        assert np.array_equal(M.simplices, M2.simplices)

    def test_mesh_io_errors(self, tmp_path):
        bad = tmp_path / "bad.mesh"
        bad.write_text("4 2\nv 1 2 3\n")
        with pytest.raises(ValueError, match="vertex"):
            read_mesh(bad)

    @pytest.mark.parametrize("text,message", [
        ("4 2\n", r"bad\.mesh: no vertex lines$"),
        ("4 2\ns 0 1 2 1\n", r"bad\.mesh: no vertex lines$"),
        ("4 2\nv 0 0 0 0\nv 1 0 0 0\nv 0 1 0 0\n",
         r"bad\.mesh: no simplex lines$"),
        ("4 x\n", r"bad\.mesh:1: invalid literal"),
        ("4 2\nv 0 a 0 0\n", r"bad\.mesh:2: could not convert"),
        ("4 2\nv 0 0 0 0\nv 1 0 0 0\nv 0 1 0 0\n# tri\ns 0 x 2 1\n",
         r"bad\.mesh:6: invalid literal"),
        ("4 2\nv 0 0 0 0\nv 1 0 0 0\nv 0 1 0 0\ns 0 1 2 z\n",
         r"bad\.mesh:5: could not convert"),
        ("4 -1\nv 0 0 0 0\ns 1\n",
         r"bad\.mesh:1: header needs 1 <= p <= n, got n = 4, p = -1$"),
        ("0 2\nv\nv\nv\ns 0 1 2 1\n",
         r"bad\.mesh:1: header needs 1 <= p <= n, got n = 0, p = 2$"),
        ("4 5\nv 0 0 0 0\ns 0 0 0 0 0 0 1\n",
         r"bad\.mesh:1: header needs 1 <= p <= n, got n = 4, p = 5$"),
    ])
    def test_mesh_missing_or_malformed_lines(self, tmp_path, text, message):
        bad = tmp_path / "bad.mesh"
        bad.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_mesh(bad)

    @pytest.mark.parametrize("index", [3, -1])
    def test_mesh_index_out_of_range(self, tmp_path, index):
        # a negative index must not count from the end of the vertex list
        bad = tmp_path / "bad.mesh"
        bad.write_text("4 2\nv 0 0 0 0\nv 1 0 0 0\nv 0 1 0 0\n"
                       f"s 0 1 {index} 1\n")
        with pytest.raises(ValueError,
                           match=r"bad\.mesh:5: vertex index outside \[0, 3\)"):
            read_mesh(bad)

    @pytest.mark.parametrize("mesh", [
        lambda: disc_mesh(8), lambda: disc_mesh(12), lambda: disc_mesh(40),
        lambda: tilted_disc_mesh(8, 0.3), lambda: tilted_disc_mesh(12, 1.1)])
    def test_face_counts_match_the_loop(self, mesh):
        M = mesh()
        counts, want = M._face_counts(), loop_face_counts(M)
        assert counts == want and list(counts) == list(want)
        assert all(type(c) is int for c in counts.values())

    def test_face_counts_of_repeated_vertices_and_other_degrees(self):
        gen = np.random.default_rng(3)
        for p in (0, 1, 2, 3):
            M = MeshedSubmanifold(gen.standard_normal((6, 4)),
                                  gen.integers(0, 6, size=(40, p + 1)),
                                  validate=False)
            counts, want = M._face_counts(), loop_face_counts(M)
            assert counts == want and list(counts) == list(want)

    def test_graph_mesh_is_holomorphic(self, omega):
        M = graph_curve_mesh(10, cal=omega)
        # tangents approach complex lines as the mesh refines
        tangents = M.to_current()._tangents
        worst = (tangents @ omega.form.to_coeff_vector()).min()
        assert worst > 1.0 - 5e-2


class TestGreen:
    def test_exact_disc_identities(self, omega):
        tests = [builtin_field(n, 4)
                 for n in ("re_z1", "abs_z1_sq", "re_z1_sq", "normsq")]
        res = green_check(disc_mesh(12, cal=omega), 0, tests, omega)
        assert res.exact_disc
        # harmonic measure is a probability measure
        assert res.meta["mu_min"] >= -1e-12
        assert abs(res.meta["mu_sum"] - 1.0) <= 1e-10
        assert res.green_values.min() >= -1e-12
        # frozen analytic oracle: both sides equal 1 for |z1|^2
        assert res.residuals["abs_z1_sq"] < 1e-3
        assert res.residuals["re_z1"] < 1e-12

    def test_off_center_discrete_mode(self, omega):
        M = disc_mesh(12, cal=omega)
        tests = [builtin_field(n, 4) for n in ("re_z1", "abs_z1_sq")]
        x = 1  # first ring vertex: interior but not the center
        res = green_check(M, x, tests, omega)
        assert not res.exact_disc
        assert res.meta["mu_min"] >= -1e-12
        for v in res.residuals.values():
            assert v < 5e-3

    def test_discrete_mode_refines(self, omega):
        tests = [builtin_field("abs_z1_sq", 4)]
        r1 = green_check(disc_mesh(8, cal=omega), 1, tests, omega)
        r2 = green_check(disc_mesh(16, cal=omega), 1, tests, omega)
        assert r2.residuals["abs_z1_sq"] < r1.residuals["abs_z1_sq"]

    def test_finer_mesh_converges(self, omega):
        # beyond criterion 7's pinned meshes: from 40 to 80 rings the
        # residuals of the curved fields fall 16x (7.8e-9 -> 4.9e-10), the
        # harmonic ones stay at rounding level (1.3e-15), and the blocked
        # log-kernel moments keep the peak at 35 MB (220 MB unblocked)
        tests = [builtin_field(name, 4) for name in BUILTIN_SET1]
        r40 = green_check(disc_mesh(40, cal=omega), 0, tests, omega).residuals
        M = disc_mesh(80, cal=omega)
        tracemalloc.start()
        try:
            r80 = green_check(M, 0, tests, omega).residuals
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for name in ("abs_z1_sq", "normsq"):
            assert r80[name] <= r40[name] / 10
        for name in ("re_z1", "re_z1_sq"):
            assert r80[name] < 1e-13
        assert peak < 60e6

    def test_psh_hull_inequality(self, omega):
        # strictly psh test function: f(x) <= mu(f) with positive slack
        f = builtin_field("normsq", 4)
        M = disc_mesh(10, cal=omega)
        res = green_check(M, 0, [f], omega)
        mu_f = sum(w * f(M.vertices[j])
                   for w, j in zip(res.mu, res.mu_indices))
        assert f(M.vertices[0]) <= mu_f - 0.5

    def test_boundary_vertex_rejected(self, omega):
        M = disc_mesh(4, cal=omega)
        rim = M.boundary_vertices()[0]
        with pytest.raises(ValueError, match="interior"):
            green_check(M, rim, [builtin_field("re_z1", 4)], omega)


class TestMaxPrinciple:
    def test_harmonic_bounds(self, omega, ss_omega):
        M = disc_mesh(8, cal=omega)
        rep = max_principle_check(M, builtin_field("re_z1", 4), "bounds",
                                  omega, samples=ss_omega)
        assert rep.ok and rep.precondition_ok

    def test_abs_z1_sq_centered_disc_flags_critical_point(self, omega,
                                                          ss_omega):
        # |z1|^2 has a critical point at the disc center, so it is not
        # pluriharmonic mod d on any neighborhood of M: the two-sided bound
        # genuinely fails there and the precondition must say so
        M = disc_mesh(8, cal=omega)
        rep = max_principle_check(M, builtin_field("abs_z1_sq", 4), "bounds",
                                  omega, samples=ss_omega)
        assert not rep.precondition_ok
        assert rep.precondition_info["critical_probes"] >= 1
        lo, hi = rep.details["boundary_range"]
        assert abs(hi - 1.0) < 1e-12            # rim at |z1| = 1
        assert rep.details["slack"][1] >= -1e-12  # sup side still holds

    def test_abs_z1_sq_off_center_disc(self, omega, ss_omega):
        # away from its critical set the function is mod-d pluriharmonic
        # and the two-sided bound holds
        M0 = disc_mesh(8)
        shifted = M0.vertices + np.array([2.0, 0.0, 0.0, 0.0])
        M = MeshedSubmanifold(shifted, M0.simplices, cal=omega)
        rep = max_principle_check(M, builtin_field("abs_z1_sq", 4), "bounds",
                                  omega, samples=ss_omega)
        assert rep.ok and rep.precondition_ok

    def test_precondition_reported_not_skipped(self, omega, ss_omega):
        M = disc_mesh(6, cal=omega)
        rep = max_principle_check(M, builtin_field("normsq", 4), "bounds",
                                  omega, samples=ss_omega)
        assert not rep.precondition_ok          # normsq is not mod-d flat
        assert "modd_residuals" in rep.precondition_info

    def test_lemma58_constant_function(self, omega):
        M = disc_mesh(6, cal=omega)
        f = builtin_field("coord:3", 4)   # x2 vanishes on the x1y1-plane
        rep = max_principle_check(M, f, "lemma58", omega)
        assert rep.ok and rep.precondition_ok
        assert rep.details["worst_boundary_pairing"] < 1e-12


class TestRestriction:
    def test_flat_disc_laplacian_value(self, omega, ss_omega):
        M = disc_mesh(10, cal=omega)
        rep = restriction_subharmonicity(M, builtin_field("normsq", 4),
                                         omega, samples=ss_omega)
        assert rep.ok and rep.precondition_ok
        assert abs(rep.details["min_laplacian"] - 4.0) < 0.2
        assert abs(rep.details["max_laplacian"] - 4.0) < 0.2

    def test_graph_mesh_subharmonic(self, omega, ss_omega):
        M = graph_curve_mesh(12, cal=omega)
        for name in ("normsq", "abs_z1_sq"):
            rep = restriction_subharmonicity(M, builtin_field(name, 4),
                                             omega, samples=ss_omega)
            assert rep.ok

    def test_cotan_laplacian_zero_row_sums(self):
        M = disc_mesh(5)
        L, areas = cotan_laplacian(M.vertices, M.simplices)
        assert np.abs(np.asarray(L.sum(axis=1)).ravel()).max() < 1e-12
        assert abs(areas.sum() - mass(M.to_current())) < 1e-12


# -- the per-simplex routes the batched geometry replaced, kept as references

def loop_face_counts(M):
    """The former per-(simplex, face) dict loop of ``_face_counts``."""
    counts = {}
    for tri in M.simplices:
        for drop in range(M.p + 1):
            face = tuple(v for i, v in enumerate(tri) if i != drop)
            key, sign = _sorted_sign(face)
            counts[key] = counts.get(key, 0) + sign * (-1) ** drop
    return counts


def qr_tangent(verts):
    """Unit p-vector of an ordered simplex through the QR of its edges."""
    from calibr.exterior import simple_from_frame
    _, xi = simple_from_frame(verts[1:] - verts[0])
    return xi.to_coeff_vector()


def loop_cotan_laplacian(vertices, triangles):
    """Cotangent stiffness and lumped areas, one triangle at a time."""
    import scipy.sparse as sp
    from calibr.polynomial import simplex_volume
    V = np.asarray(vertices, dtype=float)
    nv = len(V)
    rows, cols, vals = [], [], []
    areas = np.zeros(nv)
    for tri in triangles:
        i, j, k = (int(t) for t in tri)
        area = simplex_volume(V[[i, j, k]])
        for a in (i, j, k):
            areas[a] += area / 3.0
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            u = V[a] - V[c]
            v = V[b] - V[c]
            cross = np.linalg.norm(np.cross(u, v)) if V.shape[1] == 3 else \
                math.sqrt(max((u @ u) * (v @ v) - (u @ v) ** 2, 0.0))
            w = 0.5 * (u @ v) / max(cross, 1e-300)
            rows += [a, b, a, b]
            cols += [b, a, a, b]
            vals += [-w, -w, w, w]
    return sp.csr_matrix((vals, (rows, cols)), shape=(nv, nv)), areas


def random_current(n, p, count, seed):
    rng = np.random.default_rng([n, p, seed])
    return PolyhedralCurrent(n, p, [(rng.standard_normal((p + 1, n)),
                                     float(rng.choice([-2.0, 0.5, 1.0])))
                                    for _ in range(count)])


class TestBatchedGeometry:
    @pytest.mark.parametrize("n,p", [(n, p) for n in (3, 4, 5)
                                     for p in (1, 2, 3)])
    def test_against_per_simplex_routes(self, n, p):
        from calibr.polynomial import simplex_volume
        T = random_current(n, p, 40, seed=1)
        for S in (T, boundary(T)):
            vols = [simplex_volume(v) for v, _ in S.simplices]
            assert S._volumes.tolist() == vols            # bit for bit
            assert S._mults.tolist() == [m for _, m in S.simplices]
            if S.p == 0:                                  # points
                assert S._tangents.tolist() == [[1.0]] * len(S)
                continue
            ref = np.array([qr_tangent(v) for v, _ in S.simplices])
            assert np.abs(S._tangents - ref).max() <= 1e-14

    def test_mass_evaluate_positivity_against_simplex_loop(self, omega):
        from calibr.exterior import ExteriorElement
        from calibr.polynomial import integrate_over_simplex, simplex_volume
        rng = np.random.default_rng(11)
        T = random_current(4, 2, 30, seed=2)
        const = ExteriorElement.from_coeff_vector(4, 2, rng.standard_normal(6))
        alpha = PolyForm(4, 2, {idx: Polynomial(4, {
            tuple(rng.integers(0, 3, size=4)): rng.standard_normal()
            for _ in range(3)}) for idx in ((1, 2), (1, 4), (3, 4))})
        xis = [qr_tangent(v) for v, _ in T.simplices]
        lex = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        want_mass = sum(abs(m) * simplex_volume(v) for v, m in T.simplices)
        want_const = sum(m * simplex_volume(v) * (xi @ const.to_coeff_vector())
                         for (v, m), xi in zip(T.simplices, xis))
        want_poly = sum(m * integrate_over_simplex(sum(
            (float(xi[lex.index(idx)]) * q for idx, q in alpha.comps.items()),
            Polynomial(4)), v) for (v, m), xi in zip(T.simplices, xis))
        assert abs(mass(T) - want_mass) <= 1e-12 * want_mass
        assert abs(evaluate(T, const) - want_const) <= 1e-12 * want_mass
        assert abs(evaluate(T, alpha) - want_poly) <= 1e-12 * max(
            1.0, abs(want_poly))
        omega_vec = omega.form.to_coeff_vector()
        bad = [k for k, ((_, m), xi) in enumerate(zip(T.simplices, xis))
               if m < 0 or xi @ omega_vec < 1.0 - 1e-9]
        got = phi_positive_check(T, omega)["violations"]
        assert [v["index"] for v in got] == bad and bad
        assert all(type(v["phi"]) is float and type(v["multiplicity"]) is float
                   for v in got)

    def test_volumes_bitwise_on_a_large_mesh(self, omega):
        from calibr.polynomial import simplex_volume
        T = graph_curve_mesh(30).to_current()            # 5,400 triangles
        assert T._volumes.tolist() == [simplex_volume(v)
                                       for v, _ in T.simplices]

    @pytest.mark.parametrize("make", [
        lambda: cap_mesh(6, 0.4, n=3), lambda: disc_mesh(6),
        lambda: tilted_disc_mesh(5, 0.8), lambda: graph_curve_mesh(6),
        lambda: disc_mesh(4, n=5)])
    def test_cotan_against_triangle_loop(self, make):
        M = make()
        L, areas = cotan_laplacian(M.vertices, M.simplices)
        L_ref, areas_ref = loop_cotan_laplacian(M.vertices, M.simplices)
        assert areas.tolist() == areas_ref.tolist()      # bit for bit
        assert np.abs((L - L_ref).toarray()).max() <= 1e-14

    def test_degenerate_index_counts_zero_multiplicities(self):
        good = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        # a degenerate simplex of multiplicity zero is accepted and dropped
        T = PolyhedralCurrent(2, 2, [(flat, 0.0), (good, 1.0)])
        assert len(T) == 1 and T.simplices[0][1] == 1.0
        with pytest.raises(ValueError, match=r"^simplex 2 is degenerate$"):
            PolyhedralCurrent(2, 2, [(flat, 0.0), (good, 1.0), (flat, 3.0),
                                     (flat, 1.0)])

    def test_first_offending_entry_is_reported(self):
        good = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match=r"^simplex 1 is degenerate$"):
            PolyhedralCurrent(2, 2, [(good, 1.0), (flat, 1.0), (good[:2], 1)])
        with pytest.raises(ValueError, match=r"^simplex 1: expected \(3, 2\) "
                           r"vertex array, got \(2, 2\)$"):
            PolyhedralCurrent(2, 2, [(good, 1.0), (good[:2], 1), (flat, 1.0)])

    def test_empty_and_zero_dimensional_currents(self):
        T = PolyhedralCurrent(3, 2, [])
        assert mass(T) == 0.0 and len(T) == 0
        seg = PolyhedralCurrent(3, 1, [(np.array([[0.0, 0, 0],
                                                  [0.0, 3.0, 4.0]]), 2.0)])
        assert mass(seg) == 10.0
        ends = boundary(seg)
        assert ends._volumes.tolist() == [1.0, 1.0]
        assert sorted(ends._mults.tolist()) == [-2.0, 2.0]

    def test_flat_mesh_reports_first_bent_simplex(self, omega):
        M = disc_mesh(3)
        verts = M.vertices.copy()
        verts[M.simplices[4][0], 2] = 0.3          # lift one vertex
        bent = [k for k, t in enumerate(M.simplices)
                if M.simplices[4][0] in t]
        with pytest.raises(ValueError, match=f"^simplex {bent[0]} tangent"):
            MeshedSubmanifold(verts, M.simplices, cal=omega)


# -- the scalar routes the array kernels replaced, kept as references

def dirichlet_mean(poly, vertices):
    """Mean of a polynomial over a simplex: substitute x = sum_i lambda_i v_i
    and apply the Dirichlet moment formula p! prod e_i! / (p + |e|)!."""
    V = np.asarray(vertices, dtype=float)
    p = V.shape[0] - 1
    total = 0.0
    for exps, c in poly.substitute_linear(V).terms.items():
        num = math.factorial(p)
        for e in exps:
            num *= math.factorial(e)
        total += c * num / math.factorial(p + sum(exps))
    return total


GAUSS_24 = np.polynomial.legendre.leggauss(24)


def log_radial_integral(R, coeffs):
    """int_0^R (-1/(2 pi)) log(r) * (sum_k c_k r^k) * r dr, exactly."""
    total = 0.0
    for k, c in enumerate(coeffs):
        if c == 0.0:
            continue
        kk = k + 2
        total += c * (R ** kk) * (math.log(R) / kk - 1.0 / kk ** 2)
    return -total / (2.0 * math.pi)


def fan_log_integral(x, a, b, qfun, qdeg):
    """Signed integral of -(1/2pi) log|z - x| q(z) over the triangle
    (x, a, b): 24-node angular Gauss rule, q along each ray from a degree
    qdeg fit at Chebyshev nodes, radial part exact per power."""
    a = a - x
    b = b - x
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    cross = a[0] * b[1] - a[1] * b[0]
    if abs(cross) <= 1e-13 * (na * nb + 1e-300):
        return 0.0
    alpha = math.atan2(a[1], a[0])
    delta = math.atan2(b[1], b[0]) - alpha
    while delta <= -math.pi:
        delta += 2 * math.pi
    while delta > math.pi:
        delta -= 2 * math.pi
    d = abs(cross) / np.linalg.norm(b - a)
    nrm = np.array([-(b - a)[1], (b - a)[0]])
    nrm /= np.linalg.norm(nrm)
    if nrm @ a < 0:
        nrm = -nrm
    R_cap = 2.0 * max(na, nb)
    rad_nodes = np.cos(np.pi * (2 * np.arange(qdeg + 1) + 1) / (2 * (qdeg + 1)))
    total = 0.0
    for t, w in zip(*GAUSS_24):
        theta = alpha + delta * (t + 1) / 2.0
        u = np.array([math.cos(theta), math.sin(theta)])
        R = min(d / max(nrm @ u, 1e-300), R_cap)
        if qdeg == 0:
            coeffs = [qfun(x)]
        else:
            rs = R * (rad_nodes + 1.0) / 2.0
            coeffs = np.polynomial.polynomial.polyfit(
                rs, [qfun(x + r * u) for r in rs], qdeg)
        total += w * log_radial_integral(R, np.atleast_1d(coeffs))
    return total * (delta / 2.0)


def triangle_log_integral(zx, tri, qfun, qdeg):
    a, b, c = tri
    return (fan_log_integral(zx, a, b, qfun, qdeg)
            + fan_log_integral(zx, b, c, qfun, qdeg)
            + fan_log_integral(zx, c, a, qfun, qdeg))


def loop_green_check(M, x_index, tests, cal, qdeg=4):
    """``green_check`` one field and one triangle at a time: q from the
    Hessian pairing about mesh vertex 0, the log kernel by the scalar fan,
    the P1 remainder by ``dirichlet_mean``.  Returns (residuals, mu,
    green_values, meta)."""
    import scipy.sparse.linalg as spla
    from calibr.currents import _hessian_pair_poly, _plane_coordinates
    from calibr.polynomial import simplex_volume
    frame, xi_M, coords = _plane_coordinates(M)
    interior = M.interior_vertices()
    boundary_idx = M.boundary_vertices()
    zx = coords[x_index]
    r_bnd = np.linalg.norm(coords[boundary_idx] - zx[None, :], axis=1)
    exact_disc = bool(np.abs(r_bnd - 1.0).max() < 1e-9)
    L, _ = cotan_laplacian(M.vertices, M.simplices)
    rhs = np.zeros(len(interior))
    rhs[interior.index(x_index)] = 1.0
    G = np.zeros(len(M.vertices))
    G[interior] = spla.spsolve(L[interior, :][:, interior].tocsc(), rhs)
    flux = np.asarray(L @ G).ravel()
    mu = np.array([-flux[j] for j in boundary_idx])
    meta = {"mu_min": float(mu.min()), "mu_sum": float(mu.sum()),
            "green_min": float(G.min())}
    mu = np.maximum(mu, 0.0)
    mu = mu / mu.sum()
    r_all = np.linalg.norm(coords - zx[None, :], axis=1)
    S_vals = np.zeros(len(M.vertices))
    S_vals[r_all > 1e-300] = -np.log(r_all[r_all > 1e-300]) / (2.0 * math.pi)
    H_vals = G - S_vals
    ring = sorted({int(v) for tri in M.simplices if x_index in tri
                   for v in tri if v != x_index})
    H_vals[x_index] = float(np.mean(H_vals[ring]))
    residuals = {}
    for f in tests:
        q = _hessian_pair_poly(f, cal, xi_M, frame, M.vertices[0])
        qdeg_f = min(qdeg, max(q.degree(), 0))
        total = 0.0
        for tri_idx in M.simplices:
            tri = coords[tri_idx]
            if not exact_disc:
                A = np.column_stack([np.ones(3), tri])
                c = np.linalg.solve(A, H_vals[tri_idx])
                h = Polynomial(2, {(0, 0): c[0], (1, 0): c[1], (0, 1): c[2]})
                total += dirichlet_mean(h * q, tri) * simplex_volume(tri)
            total += triangle_log_integral(zx, tri, q, qdeg_f)
        rhs_val = sum(w * f(M.vertices[j])
                      for w, j in zip(mu, boundary_idx)) - f(M.vertices[x_index])
        residuals[f.name] = abs(total - rhs_val)
    return residuals, mu, G, meta


def poly_field(rng, degree, name, n=4):
    """Twelve random monomials up to the degree plus one of top degree."""
    from calibr.polynomial import monomial_exponents
    exps = monomial_exponents(n, degree)
    terms = {exps[k]: float(rng.standard_normal())
             for k in rng.choice(len(exps), size=12, replace=False)}
    top = [e for e in exps if sum(e) == degree]
    terms[top[rng.integers(len(top))]] = 1.0
    return ScalarField.from_polynomial(Polynomial(n, terms), name)


class TestArrayKernels:
    @pytest.mark.parametrize("n,p", [(1, 1), (3, 1), (2, 2), (4, 2), (5, 2),
                                     (3, 3), (4, 3), (4, 0)])
    def test_monomial_means_against_dirichlet(self, n, p):
        from calibr.polynomial import (integrate_over_simplex,
                                       monomial_exponents,
                                       simplex_monomial_means, simplex_volume)
        rng = np.random.default_rng([n, p])
        V = rng.standard_normal((5, p + 1, n))
        exps = monomial_exponents(n, 6 if n <= 3 else 4)
        got = simplex_monomial_means(V, exps)
        want = np.array([[dirichlet_mean(Polynomial.monomial(n, e), v)
                          for e in exps] for v in V])
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        poly = Polynomial(n, {e: rng.standard_normal() for e in exps[::3]})
        for v in V:
            assert abs(integrate_over_simplex(poly, v)
                       - dirichlet_mean(poly, v) * simplex_volume(v)) <= 1e-12

    @pytest.mark.parametrize("n,p", [(3, 1), (4, 1), (4, 2), (5, 2), (4, 3),
                                     (5, 3)])
    def test_evaluate_against_simplex_loop(self, n, p):
        from calibr.exterior import lex_indices
        from calibr.polynomial import monomial_exponents
        rng = np.random.default_rng([n, p, 7])
        T = random_current(n, p, 12, seed=4)
        for degree in (0, 1, 2, 4, 6):
            exps = monomial_exponents(n, degree)
            alpha = PolyForm(n, p, {idx: Polynomial(n, {
                exps[k]: float(rng.standard_normal())
                for k in rng.choice(len(exps), size=min(5, len(exps)),
                                    replace=False)})
                for idx in lex_indices(n, p)})
            want = sum(m * dirichlet_mean(sum(
                (float(x) * alpha.comps[idx]
                 for x, idx in zip(xi, lex_indices(n, p))), Polynomial(n)),
                v) * vol for (v, m), xi, vol in zip(T.simplices, T._tangents,
                                                     T._volumes))
            assert abs(evaluate(T, alpha) - want) <= 1e-12 * max(1.0,
                                                                 abs(want))

    @pytest.mark.parametrize("m,x", [(20, 7), (40, 0), (40, 1000)])
    def test_log_moments_against_scalar_fans(self, omega, m, x):
        from calibr.currents import _log_moments
        from calibr.polynomial import monomial_exponents
        M = disc_mesh(m, cal=omega)
        coords = M.vertices[:, :2]
        tris = M.simplices[::m * 20]
        if x:                     # keep the triangles at the pole in
            tris = np.vstack([M.simplices[[x in t for t in M.simplices]],
                              tris])
        got = _log_moments(coords[tris] - coords[x], 3)
        for e, val in zip(monomial_exponents(2, 3), got):
            def q(z, e=e):
                w = z - coords[x]
                return w[0] ** e[0] * w[1] ** e[1]
            want = sum(triangle_log_integral(coords[x], coords[t], q, sum(e))
                       for t in tris)
            assert abs(val - want) <= 1e-13, e

    @pytest.mark.parametrize("m,x", [(8, 0), (12, 0), (8, 4)])
    def test_green_check_against_scalar_route(self, omega, m, x):
        tests = [builtin_field(nm, 4) for nm in
                 ("re_z1", "abs_z1_sq", "re_z1_sq", "normsq")]
        M = disc_mesh(m, cal=omega)
        res = green_check(M, x, tests, omega)
        residuals, mu, G, meta = loop_green_check(M, x, tests, omega)
        assert res.exact_disc == (x == 0)
        assert res.mu.tobytes() == mu.tobytes()
        assert res.green_values.tobytes() == G.tobytes()
        assert res.meta == meta
        for name, r in residuals.items():
            assert abs(res.residuals[name] - r) <= 1e-12

    @pytest.mark.parametrize("x", [0, 3, 10])
    def test_high_degree_fields_against_scalar_route(self, omega, x):
        rng = np.random.default_rng(42)
        tests = [poly_field(rng, 4, "d4"), poly_field(rng, 6, "d6")]
        M = disc_mesh(3, cal=omega)
        res = green_check(M, x, tests, omega)
        residuals, mu, G, meta = loop_green_check(M, x, tests, omega)
        assert res.mu.tobytes() == mu.tobytes() and res.meta == meta
        for name, r in residuals.items():
            assert abs(res.residuals[name] - r) <= 1e-12

    def test_tilted_plane_against_scalar_route(self, omega):
        rng = np.random.default_rng(5)
        tests = [poly_field(rng, 4, "d4"), builtin_field("abs_z1_sq", 4)]
        M = tilted_disc_mesh(3, 0.5)
        for x in (0, 5):
            res = green_check(M, x, tests, omega)
            residuals, _, _, _ = loop_green_check(M, x, tests, omega)
            for name, r in residuals.items():
                assert abs(res.residuals[name] - r) <= 1e-12

    def test_non_polynomial_field_rejected(self, omega):
        e1 = np.eye(4)[0]
        f = ScalarField(4, lambda x: float(np.sin(x[0])),
                        lambda x: np.cos(x[0]) * e1,
                        lambda x: -np.sin(x[0]) * np.outer(e1, e1),
                        name="sin_x1")
        with pytest.raises(ValueError, match="'sin_x1' is not polynomial"):
            green_check(disc_mesh(4, cal=omega), 0,
                        [builtin_field("re_z1", 4), f], omega)

    def test_pole_at_a_triangle_vertex_warns_nothing(self, omega):
        import warnings
        rng = np.random.default_rng(1)
        tests = [builtin_field("normsq", 4), poly_field(rng, 4, "d4")]
        M = disc_mesh(6, cal=omega)
        with warnings.catch_warnings(), np.errstate(divide="raise",
                                                    over="raise",
                                                    invalid="raise"):
            warnings.simplefilter("error")
            for x in (0, 1, 40):
                res = green_check(M, x, tests, omega)
                assert all(np.isfinite(v) for v in res.residuals.values())
