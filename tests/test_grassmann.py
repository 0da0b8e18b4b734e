import collections

import numpy as np
import pytest

import calibr.grassmann
from calibr.acceptance import COMASS_ENTRIES, NORMAL_ENTRIES
from calibr.calibrations import CATALOGUE_SPECS, Calibration, catalogue
from calibr.cones import cone_membership
from calibr.exterior import (ExteriorElement, SimplePlane, _pluecker,
                             angular_distance, hodge_star, interior_product,
                             lex_indices, pairing, simple_from_frame, wedge)
from calibr.grassmann import (DEDUP_ANGLE, DEFAULT_GTOL, FormEvaluator,
                              PhiStructure,
                              _STRUCTURE_CACHE_SIZE, _comass_ascent,
                              _ascent_source, _collect_planes, _haar_perp,
                              _exact_frame, _random_frames, comass,
                              constrained_extremum,
                              hyperplane_basis, kaehler_planes,
                              kaehler_structure,
                              phi_structure, polish_plane, pullback,
                              random_frame, random_plane_set,
                              reduce_calibration, rng_stream,
                              sample_grassmannian, span_split)
from calibr.hessian import normality_check


def dx(n, *idx):
    return ExteriorElement.basis(n, idx)


class TestFormEvaluator:
    def test_matches_exterior_pairing(self):
        rng = np.random.default_rng(0)
        for name, params in [("kaehler", (2, 1)), ("associative", ())]:
            cal = catalogue(name, *params)
            ev = FormEvaluator(cal.form)
            for _ in range(10):
                U = random_frame(cal.n, cal.p, rng)
                _, xi = simple_from_frame(U.T)
                assert abs(ev.value(U) - pairing(cal.form, xi)) < 1e-12

    def test_gradient_against_differences(self):
        rng = np.random.default_rng(1)
        cal = catalogue("special_lagrangian", 3)
        ev = FormEvaluator(cal.form)
        U = random_frame(6, 3, rng)
        _, G = ev.value_and_grad(U)
        h = 1e-6
        for _ in range(8):
            i, k = rng.integers(0, 6), rng.integers(0, 3)
            Up, Um = U.copy(), U.copy()
            Up[i, k] += h
            Um[i, k] -= h
            fd = (ev.value(Up) - ev.value(Um)) / (2 * h)
            assert abs(fd - G[i, k]) < 1e-6

    @pytest.mark.parametrize("n,p", [(4, 1), (5, 2), (6, 3), (7, 3), (8, 4)])
    def test_hessian_entries(self, n, p):
        # entry ((b, a), (c, d)) is phi with columns b, c of the frame
        # replaced by q_a, q_d, and -phi(U) delta_ad when b = c
        rng = np.random.default_rng([n, p])
        phi = ExteriorElement.from_coeff_vector(
            n, p, rng.standard_normal(len(lex_indices(n, p))))
        ev = FormEvaluator(phi)
        U = np.array([random_frame(n, p, rng) for _ in range(3)])
        Q = np.linalg.qr(U, mode="complete")[0][:, :, p:]
        H = ev.hessian(U, Q)
        m = n - p
        for s in range(3):
            want = np.empty((p, m, p, m))
            for b, a, c, d in np.ndindex(p, m, p, m):
                if b == c:
                    want[b, a, c, d] = -ev.value(U[s]) * (a == d)
                else:
                    V = U[s].copy()
                    V[:, b], V[:, c] = Q[s, :, a], Q[s, :, d]
                    want[b, a, c, d] = ev.value(V)
            assert np.abs(H[s] - want.reshape(p * m, p * m)).max() < 1e-12

    def test_hessian_along_geodesics(self):
        # <D, Hess D> is the second derivative of phi along the Grassmann
        # geodesic with velocity D (Edelman-Arias-Smith 1998, 2.5.1)
        rng = np.random.default_rng(3)
        phi = ExteriorElement.from_coeff_vector(
            7, 3, rng.standard_normal(35))
        ev = FormEvaluator(phi)
        U = random_frame(7, 3, rng)
        Q = np.linalg.qr(U, mode="complete")[0][:, 3:]
        H = ev.hessian(U[None], Q[None])[0]
        for _ in range(4):
            A = rng.standard_normal((3, 4))
            W, sig, Vt = np.linalg.svd(Q @ A.T, full_matrices=False)

            def along(t):
                return ev.value(U @ Vt.T @ np.diag(np.cos(sig * t)) @ Vt
                                + W @ np.diag(np.sin(sig * t)) @ Vt)
            h = 1e-3
            d2 = (along(h) - 2 * along(0.0) + along(-h)) / h ** 2
            assert abs(d2 - A.ravel() @ H @ A.ravel()) < 1e-4


class TestComass:
    def test_single_plane(self):
        res = comass(dx(4, 1, 2), multistarts=20, seed=0)
        assert abs(res.value - 1.0) < 1e-12
        theta, oriented = angular_distance(res.plane, SimplePlane(np.eye(4)[:2]))
        assert theta < 1e-6 and oriented

    def test_omega(self):
        res = comass(catalogue("kaehler", 2, 1).form, multistarts=30, seed=0)
        assert abs(res.value - 1.0) < 1e-10
        assert res.saturated

    def test_split_volume_frozen_oracle(self):
        # brute-force principal-angle grid put the maximum at exactly 1.0
        phi = dx(6, 1, 2, 3) + dx(6, 4, 5, 6)
        res = comass(phi, multistarts=60, seed=0)
        assert abs(res.value - 1.0) < 1e-9

    def test_homogeneity(self):
        rng = np.random.default_rng(2)
        phi = catalogue("kaehler", 2, 1).form
        for c in rng.uniform(-3, 3, size=4):
            if abs(c) < 0.1:
                continue
            res = comass(c * phi, multistarts=20, seed=1)
            assert abs(res.value - abs(c)) < 1e-8

    def test_lower_bound_consistency(self):
        rng = np.random.default_rng(3)
        phi = catalogue("special_lagrangian", 2).form
        res = comass(phi, multistarts=30, seed=2)
        for _ in range(20):
            U = random_frame(4, 2, rng)
            ev = FormEvaluator(phi)
            assert res.value >= abs(ev.value(U)) - 1e-9

    def test_determinism(self):
        phi = catalogue("associative").form
        a = comass(phi, multistarts=15, seed=42)
        b = comass(phi, multistarts=15, seed=42)
        assert a.value == b.value
        assert np.array_equal(a.plane.frame, b.plane.frame)
        assert np.array_equal(a.values, b.values)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            comass(ExteriorElement.zero(4, 2))


class TestExactComass:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_matches_ascent(self, n):
        # closed forms in degrees 1, 2, n-2, n-1 and n against 60-start ascent
        rng = np.random.default_rng(100 + n)
        for p in sorted({1, 2, n - 2, n - 1, n}):
            phi = ExteriorElement(n, p, {idx: rng.standard_normal()
                                         for idx in lex_indices(n, p)})
            res = comass(phi)
            ref = _comass_ascent(phi, 60, 600, DEFAULT_GTOL, 0)
            assert res.exact and res.saturated
            assert res.multistarts == 0 and res.converged == 0
            assert abs(res.value - ref.value) < 1e-10
            # the returned plane attains the value
            attained = pairing(phi, res.plane.pvector())
            assert abs(attained - res.value) < 1e-12

    def test_other_degrees_use_ascent(self):
        # off the G2 identity, so phi_structure finds nothing
        phi = catalogue("associative").form + 1e-6 * dx(7, 1, 2, 4)
        res = comass(phi, multistarts=5, seed=0)
        assert not res.exact
        assert res.multistarts == 5
        assert comass(catalogue("associative").form).exact

    @pytest.mark.parametrize("name,params", [
        (name, params) for name, params in COMASS_ENTRIES
        if _exact_frame(catalogue(name, *params).form) is None])
    def test_structured_forms_exact(self, name, params):
        # the catalogue forms outside the closed-form degrees are all
        # structured: they read comass one on a drawn plane, and a 60-start
        # ascent cross-checks the value
        phi = catalogue(name, *params).form
        assert phi_structure(phi) is not None
        res = comass(phi)
        assert res.exact and res.multistarts == 0
        assert abs(res.value - 1.0) < 1e-12
        assert abs(pairing(phi, res.plane.pvector()) - res.value) < 1e-12
        ref = _comass_ascent(phi, 60, 600, DEFAULT_GTOL, 0)
        assert abs(ref.value - 1.0) < 1e-4


class TestSampling:
    def test_lambda_singleton(self):
        cal = catalogue("lambda_example", 0.5)
        ss = sample_grassmannian(cal, tol=1e-6, count=20, seed=7)
        assert len(ss) == 1
        assert ss.exhausted
        # the top block is 2-dimensional: one draw is the whole of G(phi)
        assert ss.multistart_count == 1
        theta, oriented = angular_distance(ss.planes[0],
                                           SimplePlane(np.eye(4)[:2]))
        assert theta < 1e-6 and oriented

    def test_codegree_two_singleton(self):
        # e345 + 0.5 e125 is the star of lambda_example in R^5: its
        # phi-planes are the complements of its one complex line
        cal = Calibration(ExteriorElement(5, 3, {(3, 4, 5): 1.0,
                                                 (1, 2, 5): 0.5}), "star")
        ss = sample_grassmannian(cal, count=8, seed=3)
        assert len(ss) == 1 and ss.multistart_count == 1
        assert ss.exhausted and ss.exact
        theta, oriented = angular_distance(ss.planes[0],
                                           SimplePlane(np.eye(5)[2:]))
        assert theta < 1e-12 and oriented

    def test_volume_singleton(self):
        ss = sample_grassmannian(catalogue("volume", 3), count=5, seed=1)
        assert len(ss) == 1

    def test_sample_values_within_band(self):
        cal = catalogue("cayley")
        ss = sample_grassmannian(cal, tol=1e-6, count=25, seed=5)
        assert len(ss) == 25
        assert min(ss.values) >= 1.0 - 1e-6
        # planes pass the invariant: wedge of frame is unit simple
        for pl in ss.planes:
            assert abs(pl.pvector().norm() - 1.0) < 1e-10

    def test_dedup_distinct(self):
        cal = catalogue("kaehler", 2, 1)
        ss = sample_grassmannian(cal, count=15, seed=9)
        for i in range(len(ss)):
            for j in range(i + 1, len(ss)):
                theta, oriented = angular_distance(ss.planes[i], ss.planes[j])
                assert not (oriented and theta <= 1e-3)

    def test_comass_confirmation_failure(self):
        from calibr.calibrations import Calibration
        bogus = Calibration(2.0 * catalogue("kaehler", 2, 1).form, "bogus")
        with pytest.raises(ValueError, match="comass confirmation"):
            sample_grassmannian(bogus, count=5, seed=0)


STRUCTURED_ENTRIES = [e for e in COMASS_ENTRIES if e[0] != "lambda_example"]


class TestDrawnSample:
    @pytest.mark.parametrize("name,params", STRUCTURED_ENTRIES)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_planes_of_g_phi(self, name, params, seed):
        cal = catalogue(name, *params)
        assert phi_structure(cal.form) is not None
        ss = sample_grassmannian(cal, count=8, seed=seed)
        assert len(ss) == 8 and ss.exact
        assert ss.multistart_count == 8 and ss.capped == 0
        ev = FormEvaluator(cal.form)
        for pl, v in zip(ss.planes, ss.values):
            assert abs(ev.value(pl.frame.T) - 1.0) <= 1e-12
            assert abs(v - 1.0) <= 1e-12
        for i in range(len(ss)):
            for j in range(i + 1, len(ss)):
                theta, oriented = angular_distance(ss.planes[i], ss.planes[j])
                assert not (oriented and theta <= DEDUP_ANGLE)
        again = sample_grassmannian(cal, count=8, seed=seed)
        assert [pl.frame.tobytes() for pl in ss.planes] == \
            [pl.frame.tobytes() for pl in again.planes]

    def test_single_plane_exhausts_like_ascent(self):
        # G(e12) on R^2 is one plane: the ascent finds it again on every
        # attempt and stops at max_attempts, while the structure knows the
        # first draw is the whole of G(phi) and stops there
        cal = catalogue("volume", 2)
        ss = sample_grassmannian(cal, count=5, seed=1)
        ref = _collect_planes(cal, _ascent_source(cal, 1), 1e-6, 5)
        assert ss.exact and not ref.exact
        assert len(ss) == len(ref) == 1
        assert ss.exhausted and ref.exhausted
        assert ss.multistart_count == 1 and ref.multistart_count == 160
        assert np.array_equal(ss.frames, sample_grassmannian(
            cal, count=1, seed=1).frames)


class TestPlaneStack:
    """A sample is one read-only (k, n, p) stack of column frames; its
    planes, Pluecker rows and annihilator are computed from the stack."""

    @pytest.fixture(scope="class")
    def ss(self):
        return sample_grassmannian(catalogue("associative"), count=8, seed=3)

    def test_read_only(self, ss):
        assert ss.frames.shape == (8, 7, 3)
        for arr in (ss.frames, ss.pvectors(), ss.annihilator()):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            ss.frames[0, 0, 0] = 1.0

    def test_planes_are_views_of_the_frames(self, ss):
        assert isinstance(ss.planes, tuple) and len(ss.planes) == len(ss)
        for pl, U in zip(ss.planes, ss.frames):
            assert np.array_equal(pl.frame, U.T)
        assert ss.planes is ss.planes

    @pytest.mark.parametrize("name,params", CATALOGUE_SPECS,
                             ids=[f"{n}{p}" for n, p in CATALOGUE_SPECS])
    def test_pvectors_match_the_planes_bytes(self, name, params):
        ss = sample_grassmannian(catalogue(name, *params), count=5, seed=1729)
        rows = np.array([pl.pvector().to_coeff_vector() for pl in ss.planes])
        assert ss.pvectors().tobytes() == rows.tobytes()

    def test_random_plane_set_is_the_random_frames(self):
        ss = random_plane_set(6, 3, count=7, seed=9)
        loop = np.array([random_frame(6, 3, rng_stream(9, 9000 + k))
                         for k in range(7)])
        assert ss.frames.tobytes() == _random_frames(
            6, 3, 9, range(9000, 9007)).tobytes() == loop.tobytes()
        assert len(ss) == 7 and ss.values == [0.0] * 7
        assert random_plane_set(6, 3, count=0, seed=9).frames.shape == \
            (0, 6, 3)
        with pytest.raises(ValueError, match="at least 0"):
            random_plane_set(6, 3, count=-1)

    def test_annihilator_is_the_span_complement(self, ss):
        perp = ss.annihilator()
        assert np.array_equal(perp, span_split(ss.pvectors())[1])
        assert perp is ss.annihilator()
        assert np.abs(ss.pvectors() @ perp.T).max() <= 1e-12


class TestConstrainedExtremum:
    def test_phi_on_itself(self):
        cal = catalogue("kaehler", 2, 1)
        ss = sample_grassmannian(cal, count=20, seed=4)
        res = constrained_extremum(cal.form, cal, ss, "min", starts_limit=8)
        assert abs(res.value - 1.0) < 1e-9

    def test_complex_line_minimum_frozen_oracle(self):
        # explicit complex-line parametrization gives min dx2^dy2 = 0 at the
        # x1y1 line (pre-build oracle)
        cal = catalogue("kaehler", 2, 1)
        ss = sample_grassmannian(cal, count=30, seed=4)
        alpha = ExteriorElement(4, 2, {(3, 4): 1.0})
        res = constrained_extremum(alpha, cal, ss, "min", starts_limit=10)
        assert abs(res.value) < 1e-9
        # witness should be (close to) the x1y1 complex line
        proj = np.linalg.norm(res.plane.frame[:, 2:])
        assert proj < 1e-4

    def test_negated_form(self):
        cal = catalogue("kaehler", 2, 1)
        ss = sample_grassmannian(cal, count=20, seed=4)
        res = constrained_extremum(-1.0 * cal.form, cal, ss, "min",
                                   starts_limit=8)
        assert abs(res.value + 1.0) < 1e-9

    def test_volume_reversed_component_excluded(self):
        # on O(n) the ascent cannot leave the reversed component, so the
        # feasibility filter must discard those starts
        cal = catalogue("volume", 3)
        ss = sample_grassmannian(cal, count=4, seed=2)
        res = constrained_extremum(cal.form, cal, ss, "min", extra_starts=6)
        assert abs(res.value - 1.0) < 1e-9

    def test_empty_samples_rejected(self):
        # the tangential route starts from the sample; the Kaehler route reads
        # none (tests/test_kaehler.py)
        from calibr.grassmann import PlaneSampleSet
        cal = catalogue("associative")
        empty = PlaneSampleSet(np.empty((0, 7, 3)), [], 1e-6, 0)
        with pytest.raises(ValueError):
            constrained_extremum(cal.form, cal, empty, "min")


class TestExtremumOnExceptionalForms:
    """With the membership pricing options, the extremum over G(phi) of a
    random unit form reaches at least as far as the best of 20,000 planes
    drawn from G(phi), and is attained on G(phi)."""

    @pytest.mark.parametrize("name,params", [
        ("associative", ()), ("special_lagrangian", (3,)), ("cayley", ())])
    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_reaches_drawn_extremum(self, name, params, mode):
        cal = catalogue(name, *params)
        ss = sample_grassmannian(cal, count=20, seed=5)
        P = _pluecker(phi_structure(cal.form).draw(np.random.default_rng(5),
                                                   20_000))
        ev_phi = FormEvaluator(cal.form)
        sgn = 1.0 if mode == "max" else -1.0
        rng = np.random.default_rng(17)
        for _ in range(3):
            c = rng.standard_normal(P.shape[1])
            c /= np.linalg.norm(c)
            alpha = ExteriorElement.from_coeff_vector(cal.n, cal.p, c)
            res = constrained_extremum(alpha, cal, ss, mode, starts_limit=8,
                                       extra_starts=2)
            assert not res.exact
            assert sgn * res.value >= (sgn * (P @ c)).max()
            assert abs(ev_phi.value(res.plane.frame.T) - 1.0) <= 1e-9
            assert abs(res.phi_value - 1.0) <= 1e-9


class TestFirstCousinPrinciple:
    @pytest.mark.parametrize("name,params", [
        ("kaehler", (2, 1)), ("kaehler", (3, 2)), ("special_lagrangian", (3,)),
        ("associative", ()), ("coassociative", ()), ("cayley", ()),
        ("quaternionic", (2,)), ("lambda_example", (0.5,))])
    def test_on_catalogue(self, name, params):
        # phi(b ^ (a -| xi)) = 0 for xi in G(phi), a in span, b orthogonal
        cal = catalogue(name, *params)
        ss = sample_grassmannian(cal, count=6, seed=13)
        rng = np.random.default_rng(17)
        P = None
        for pl in ss.planes:
            xi = pl.pvector()
            proj = pl.frame.T @ pl.frame
            for _ in range(10):
                a = proj @ rng.standard_normal(cal.n)
                b = (np.eye(cal.n) - proj) @ rng.standard_normal(cal.n)
                if np.linalg.norm(b) < 1e-12:
                    continue
                val = pairing(cal.form,
                              wedge(ExteriorElement.from_vector(b),
                                    interior_product(a, xi)))
                assert abs(val) < 1e-9


class TestPullbackAndReduce:
    def test_pullback_identity(self):
        cal = catalogue("kaehler", 2, 1)
        assert pullback(cal.form, np.eye(4)).allclose(cal.form)

    def test_pullback_to_plane(self):
        # restricting omega to the x1y1-plane gives the area form
        Q = np.eye(4)[:, :2]
        psi = pullback(catalogue("kaehler", 2, 1).form, Q)
        assert psi.coeffs == {(1, 2): 1.0}

    def test_hyperplane_basis(self):
        rng = np.random.default_rng(5)
        # the coordinate axes give QR pivots of exactly 0
        units = [rng.standard_normal(6) for _ in range(5)]
        units += [e for n in (4, 6) for e in np.eye(n)]
        for u in units:
            u = u / np.linalg.norm(u)
            Q = hyperplane_basis(u)
            assert np.allclose(Q.T @ Q, np.eye(u.size - 1), atol=1e-12)
            assert np.abs(Q.T @ u).max() < 1e-12

    def test_lambda_reduction(self):
        cal = catalogue("lambda_example", 0.5)
        ss = sample_grassmannian(cal, count=8, seed=3)
        red = reduce_calibration(cal, ss)
        assert red.W.shape[0] == 2
        assert np.abs(red.W[:, 2:]).max() < 1e-9
        assert not red.elliptic
        assert red.witness is not None
        assert np.abs(red.witness[:2]).max() < 1e-9
        assert red.witness_residual < 1e-9
        psi_vec = red.psi.to_coeff_vector()
        assert abs(abs(psi_vec[0]) - 1.0) < 1e-9

    def test_volume_elliptic(self):
        cal = catalogue("volume", 4)
        ss = sample_grassmannian(cal, count=3, seed=3)
        red = reduce_calibration(cal, ss)
        assert red.elliptic and red.W.shape[0] == 4

    def test_kaehler_elliptic_frozen_oracle(self):
        # every unit vector lies in the complex line span(u, Ju)
        cal = catalogue("kaehler", 2, 1)
        ss = sample_grassmannian(cal, count=30, seed=3)
        red = reduce_calibration(cal, ss)
        assert red.elliptic


def reference_pullback(phi, Q):
    """Per-minor determinant loop: sum over phi's terms of c * det(Q[I, J])."""
    n, d = Q.shape
    out = {}
    for J in lex_indices(d, phi.p):
        cols = np.array(J) - 1
        total = sum(c * np.linalg.det(Q[np.ix_(np.array(I) - 1, cols)])
                    for I, c in phi.coeffs.items())
        if total != 0.0:
            out[J] = total
    return ExteriorElement(d, phi.p, out)


class TestPullbackReference:
    @pytest.mark.parametrize("name,params", COMASS_ENTRIES)
    def test_catalogue_forms(self, name, params):
        cal = catalogue(name, *params)
        rng = np.random.default_rng(31)
        Qs = [hyperplane_basis(rng.standard_normal(cal.n)),
              rng.standard_normal((cal.n, cal.n)) / np.sqrt(cal.n),
              rng.standard_normal((cal.n, cal.p)) / np.sqrt(cal.n)]
        for Q in Qs:
            fast = pullback(cal.form, Q)
            slow = reference_pullback(cal.form, Q)
            assert fast.allclose(slow, tol=1e-12)

    def test_random_forms(self):
        rng = np.random.default_rng(37)
        for n in range(2, 8):
            for p in range(1, n + 1):
                phi = ExteriorElement.from_coeff_vector(
                    n, p, rng.standard_normal(len(lex_indices(n, p))))
                for d in range(p, n + 2):
                    Q = rng.standard_normal((n, d)) / np.sqrt(d)
                    assert pullback(phi, Q).allclose(
                        reference_pullback(phi, Q), tol=1e-12)


class TestSymbolIdentity:
    def test_projection_identity_random(self):
        # Eq-style identity: pairing(e ^ (e -| phi), xi) = |P_xi e|^2
        cal = catalogue("kaehler", 3, 2)
        ss = sample_grassmannian(cal, count=10, seed=19)
        rng = np.random.default_rng(23)
        for pl in ss.planes:
            for _ in range(20):
                e = rng.standard_normal(6)
                e /= np.linalg.norm(e)
                sym = wedge(ExteriorElement.from_vector(e),
                            interior_product(e, cal.form))
                lhs = pairing(sym, pl.pvector())
                rhs = float(np.linalg.norm(pl.frame @ e) ** 2)
                assert abs(lhs - rhs) < 1e-9


def rotated(name, seed):
    """The catalogue form pulled back by a random orthogonal matrix with
    determinant -1, so that O(n), not only SO(n), is covered."""
    phi = catalogue(name).form
    R = random_frame(phi.n, phi.n, np.random.default_rng(seed))
    if np.linalg.det(R) > 0:
        R[:, 0] = -R[:, 0]
    return pullback(phi, R)


STRUCTURE_KINDS = ["kaehler", "kaehler", "special_lagrangian", "associative",
                   "coassociative", "cayley", "quaternionic"]


class TestPhiStructure:
    @pytest.mark.parametrize("name,params,kind", [
        (name, params, kind)
        for (name, params), kind in zip(NORMAL_ENTRIES, STRUCTURE_KINDS)])
    def test_detects_normal_entries(self, name, params, kind):
        assert phi_structure(catalogue(name, *params).form).kind == kind

    @pytest.mark.parametrize("name,kind", [("associative", "associative"),
                                           ("cayley", "cayley")])
    def test_detects_rotated_forms(self, name, kind):
        assert phi_structure(rotated(name, 41)).kind == kind

    def test_rejects_other_forms(self):
        assoc = catalogue("associative").form
        rng = np.random.default_rng(43)
        for phi in (assoc + dx(7, 1, 2, 4) * 1e-6,
                    ExteriorElement.from_coeff_vector(
                        7, 3, rng.standard_normal(35))):
            assert phi_structure(phi) is None

    def test_detects_lambda_example(self):
        # e12 + 0.5 e34: Kaehler on the top block span{e1, e2} only
        st = phi_structure(catalogue("lambda_example", 0.5).form)
        assert st.kind == "kaehler"
        assert np.array_equal(np.abs(st.ops[1]), np.eye(4)[:2])

    @pytest.mark.parametrize("phi", [
        catalogue(name, *params).form for name, params in NORMAL_ENTRIES]
        + [rotated("associative", 47), rotated("cayley", 53)])
    def test_draws_lie_on_the_grassmannian(self, phi):
        st = phi_structure(phi)
        ev = FormEvaluator(phi)
        normal = np.random.default_rng(59).standard_normal(phi.n)
        normal /= np.linalg.norm(normal)
        for at in (None, normal):
            U = st.draw(rng_stream(61, 0), 40, at)
            assert U.shape == (40, phi.n, phi.p)
            gram = U.transpose(0, 2, 1) @ U
            assert np.abs(gram - np.eye(phi.p)).max() < 1e-12
            assert max(abs(ev.value(Uk) - 1.0) for Uk in U) < 1e-12
            if at is not None:
                assert np.abs(normal @ U).max() < 1e-12

    def test_no_plane_inside_the_hyperplane(self):
        # G(e12) on R^2 and G(e1234) on R^4 are single planes; none lies in
        # a hyperplane
        for cal in (catalogue("volume", 2), catalogue("quaternionic", 1)):
            U = phi_structure(cal.form).draw(rng_stream(0, 0), 5,
                                             np.ones(cal.n))
            assert U.shape == (0, cal.n, cal.p)

    def test_draw_off_the_grassmannian_raises(self):
        # the complex lines of J are not lambda_example's planes
        lam = catalogue("lambda_example", 0.5).form
        J, E = kaehler_structure(catalogue("kaehler", 2, 1).form)
        with pytest.raises(RuntimeError, match="off G"):
            PhiStructure("kaehler", lam, J, E).draw(rng_stream(0, 0), 4)
        # a NaN draw fails the check too: NaN > STRUCTURE_TOL is False
        with pytest.raises(RuntimeError, match="off G"):
            PhiStructure("kaehler", catalogue("kaehler", 2, 1).form,
                         np.full((4, 4), np.nan),
                         np.eye(4)).draw(rng_stream(0, 0), 4)


def block_form(n, lams, seed, codegree=False):
    """sum_k lams[k] e_{2k-1} ^ e_{2k} on R^n pulled back by a random
    orthogonal matrix with determinant -1, or its Hodge star; and the
    orthogonal projector onto the rotated top block, where lams is 1."""
    phi = ExteriorElement(n, 2, {(2 * k + 1, 2 * k + 2): lam
                                 for k, lam in enumerate(lams)})
    R = random_frame(n, n, np.random.default_rng(seed))
    if np.linalg.det(R) > 0:
        R[:, 0] = -R[:, 0]
    top = R[[i for k, lam in enumerate(lams) if lam == 1.0
             for i in (2 * k, 2 * k + 1)]]
    phi = pullback(phi, R)
    return (hodge_star(phi) if codegree else phi), top.T @ top


# (n, singular values, dim of the top block)
BLOCK_FORMS = [(5, (1.0, 0.6), 2), (5, (1.0, 1.0), 4),
               (6, (1.0, 0.5, 0.3), 2), (6, (0.7, 1.0, 1.0), 4)]


class TestKaehlerBlock:
    """Degree-2 and codegree-2 calibrations that are Kaehler on a proper
    top block E of their skew matrix: G(phi) is the complex lines of E
    (their complements in codegree 2), drawn from Haar vectors of E."""

    @pytest.fixture(params=[(case, co) for case in BLOCK_FORMS
                            for co in (False, True)],
                    ids=lambda c: f"n{c[0][0]}-E{c[0][2]}"
                    + ("-star" if c[1] else ""))
    def block(self, request):
        (n, lams, dim), codegree = request.param
        phi, P = block_form(n, lams, 67 + n + dim, codegree)
        return Calibration(phi, "block"), P, dim

    def test_detected(self, block):
        cal, P, dim = block
        st = phi_structure(cal.form)
        assert st.kind == "kaehler"
        J, E = kaehler_structure(cal.form)
        assert J is st.ops[0] and E is st.ops[1]
        assert E.shape == (dim, cal.n)
        assert np.abs(E.T @ E - P).max() < 1e-12

    def test_draws_lie_on_the_grassmannian(self, block):
        cal, P, dim = block
        st = phi_structure(cal.form)
        ev = FormEvaluator(cal.form)
        rng = np.random.default_rng(71)
        # normals a phi-plane lies orthogonal to: in degree 2 any normal
        # when dim E > 2, else one orthogonal to E; in codegree 2 one in E
        if cal.p == 2:
            normals = [rng.standard_normal(cal.n) @ (np.eye(cal.n) - P)]
            if dim > 2:
                normals.append(rng.standard_normal(cal.n))
        else:
            normals = [rng.standard_normal(cal.n) @ P]
        for at in [None] + normals:
            U = st.draw(rng_stream(73, 0), 40, at)
            assert U.shape == (40, cal.n, cal.p)
            gram = U.transpose(0, 2, 1) @ U
            assert np.abs(gram - np.eye(cal.p)).max() < 1e-12
            assert max(abs(ev.value(Uk) - 1.0) for Uk in U) < 1e-12
            if at is not None:
                assert np.abs(at @ U).max() < 1e-12 * np.linalg.norm(at)

    def test_no_plane_inside_the_hyperplane(self, block):
        # a complex line of E lies in at^perp only when at is orthogonal
        # to E or dim E > 2; a complement only when at lies in E
        cal, P, dim = block
        at = np.random.default_rng(79).standard_normal(cal.n)
        if cal.p == 2 and dim > 2:
            assert phi_structure(cal.form).meets(at)
            return
        assert not phi_structure(cal.form).meets(at)
        assert phi_structure(cal.form).draw(rng_stream(0, 0), 5, at).shape \
            == (0, cal.n, cal.p)
        source = calibr.grassmann.grassmann(cal, 0, at)
        assert source.take is None and source.exact

    def test_span_matches_the_ascent(self, block):
        cal, _, _ = block
        drawn = sample_grassmannian(cal, count=12, seed=83)
        ascended = _collect_planes(cal, _ascent_source(cal, 83), 1e-6, 12)
        assert drawn.exact and not ascended.exact
        A = span_split(drawn.pvectors())[0]
        B = span_split(ascended.pvectors())[0]
        assert len(A) == len(B)
        assert np.linalg.norm(A.T @ A - B.T @ B, 2) < 1e-8

    @pytest.mark.parametrize("codegree", [False, True])
    def test_top_singular_value_off_one_rejected(self, codegree):
        # scaled off a calibration, and a singular value 1 below the top
        for n, lams, _ in BLOCK_FORMS + [(6, (1.5, 1.0, 0.2), 0)]:
            phi = block_form(n, lams, 89, codegree)[0]
            for scale in ((0.9, 1.0 + 1e-9, 1.5) if max(lams) == 1.0
                          else (1.0,)):
                assert phi_structure(scale * phi) is None

    @pytest.mark.parametrize("name,params", [
        ("kaehler", (2, 1)), ("kaehler", (3, 1)), ("kaehler", (3, 2)),
        ("volume", (2,))])
    def test_kaehler_draws_unchanged(self, name, params):
        # a Kaehler form on all of R^n has the block E = I exactly and
        # keeps its draw: v Haar on R^n bit for bit, and with a normal v
        # orthogonal to at and J at in degree 2 (to rounding, as at is
        # normalized once more in E), v = at in codegree 2
        cal = catalogue(name, *params)
        st = phi_structure(cal.form)
        assert st.kind == "kaehler"
        J, E = st.ops
        assert np.array_equal(E, np.eye(cal.n))
        at = np.random.default_rng(97).standard_normal(cal.n)
        rng = rng_stream(101, 0)
        assert np.array_equal(st.draw(rng_stream(101, 0), 9),
                              kaehler_planes(_haar_perp(rng, 9, cal.n), J,
                                             cal.form))
        if cal.p == cal.n:
            return
        ats = np.broadcast_to(at / np.linalg.norm(at), (9, cal.n))
        rng = rng_stream(103, 0)
        v = ats if cal.p != 2 else _haar_perp(rng, 9, cal.n, ats,
                                              ats @ J.T)
        assert np.abs(st.draw(rng_stream(103, 0), 9, at)
                      - kaehler_planes(v, J, cal.form)).max() <= 1e-14


class TestStructureMemo:
    """`phi_structure` detects each form once, and every route that asks
    for a structure, `kaehler_structure` too, reads that detection."""

    @pytest.fixture
    def detections(self, monkeypatch):
        """Fresh detections from here on, counted by (n, p, bytes of the
        coefficient vector)."""
        counts = collections.Counter()
        detect = calibr.grassmann._detect_structure

        def spy(phi):
            counts[phi.n, phi.p, phi.to_coeff_vector().tobytes()] += 1
            return detect(phi)
        monkeypatch.setattr(calibr.grassmann, "_detect_structure", spy)
        calibr.grassmann._cached_structure.cache_clear()
        return counts

    @pytest.mark.parametrize("name,params", [
        ("quaternionic", (2,)), ("cayley", ()), ("associative", ())])
    def test_each_form_detected_once(self, name, params, detections):
        cal = catalogue(name, *params)
        comass(cal.form, seed=3)
        ss = sample_grassmannian(cal, count=4, seed=3)
        normality_check(cal, trials=2, seed=3)
        alpha = ExteriorElement.from_coeff_vector(
            cal.n, cal.p, np.random.default_rng(5).standard_normal(
                len(lex_indices(cal.n, cal.p))))
        constrained_extremum(alpha, cal, ss, "min", extra_starts=0,
                             starts_limit=2)
        cone_membership(ss.planes[0].pvector(), cal, ss, seed=3)
        key = (cal.n, cal.p, cal.form.to_coeff_vector().tobytes())
        assert detections[key] == 1
        # the member's own comass detects it once too, and nothing else
        # is detected twice
        assert max(detections.values()) == 1

    def test_equal_forms_share_one_structure(self):
        phi = catalogue("cayley").form
        assert phi_structure(ExteriorElement(8, 4, dict(phi.coeffs))) \
            is phi_structure(phi)

    @pytest.mark.parametrize("phi", [
        catalogue(name, *params).form for name, params in CATALOGUE_SPECS]
        + [rotated("associative", 41), rotated("cayley", 41),
           rotated("associative", 47), rotated("cayley", 53)])
    def test_kaehler_structure_is_the_kaehler_kind(self, phi):
        st = phi_structure(phi)
        assert (kaehler_structure(phi) is not None) \
            == (st is not None and st.kind == "kaehler")

    def test_structure_is_read_only(self):
        for M in kaehler_structure(catalogue("kaehler", 3, 1).form):
            with pytest.raises(ValueError, match="read-only"):
                M[0, 1] = 0.0
        for M in phi_structure(catalogue("quaternionic", 2).form).ops:
            with pytest.raises(ValueError, match="read-only"):
                M[0, 0] = 1.0

    def test_cache_is_bounded(self):
        rng = np.random.default_rng(17)
        for _ in range(_STRUCTURE_CACHE_SIZE + 8):
            phi_structure(ExteriorElement.from_coeff_vector(
                4, 2, rng.standard_normal(6)))
        info = calibr.grassmann._cached_structure.cache_info()
        assert info.maxsize == _STRUCTURE_CACHE_SIZE
        assert info.currsize == _STRUCTURE_CACHE_SIZE
