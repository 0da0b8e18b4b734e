import numpy as np
import pytest
from scipy.optimize import linprog

import calibr.cones
from calibr.calibrations import catalogue
from calibr.cones import (BOUNDARY_TOL, MEMBERSHIP_TOL, SEPARATION_STARTS,
                          _member_margin, cone_membership, lemma_2_5_check,
                          mass_norm_estimate, positivity_classify)
from calibr.exterior import (ExteriorElement, SimplePlane, contraction_matrix,
                             hodge_star, interior_product, lex_indices,
                             pairing, simple_from_frame, wedge)
from calibr.grassmann import (comass, constrained_extremum, polish_plane,
                              random_plane_set, rng_stream,
                              sample_grassmannian, span_split)
from calibr.lp import solve_lp


@pytest.fixture(scope="module")
def omega():
    return catalogue("kaehler", 2, 1)


@pytest.fixture(scope="module")
def lam():
    return catalogue("lambda_example", 0.5)


@pytest.fixture(scope="module")
def ss_omega(omega):
    return sample_grassmannian(omega, tol=1e-6, count=40, seed=5)


@pytest.fixture(scope="module")
def ss_lam(lam):
    return sample_grassmannian(lam, tol=1e-6, count=10, seed=5)


@pytest.fixture(scope="module")
def gens():
    return random_plane_set(4, 2, count=40, seed=9)


def e_form(*idx):
    return ExteriorElement.basis(4, idx)


class TestLambdaSpan:
    """The span of the sampled p-vectors, span_split(ss.pvectors())."""

    def test_dimensions_frozen_oracle(self, ss_omega, ss_lam):
        # explicit complex-line family has rank 4 (pre-build oracle)
        assert len(span_split(ss_omega.pvectors())[0]) == 4
        assert len(span_split(ss_lam.pvectors())[0]) == 1

    def test_volume_dimension(self):
        ss = sample_grassmannian(catalogue("volume", 3), count=3, seed=1)
        assert len(span_split(ss.pvectors())[0]) == 1

    def test_projection_idempotent(self, ss_omega):
        basis, perp = span_split(ss_omega.pvectors())
        rng = np.random.default_rng(0)
        el = ExteriorElement(4, 2, {i: rng.standard_normal()
                                    for i in lex_indices(4, 2)})
        once = basis.T @ (basis @ el.to_coeff_vector())
        twice = basis.T @ (basis @ once)
        assert np.abs(once - twice).max() <= 1e-12
        # the annihilator projects onto the rest
        rest = perp.T @ (perp @ el.to_coeff_vector())
        assert np.abs(once + rest - el.to_coeff_vector()).max() <= 1e-12


class TestConeMembership:
    def test_grassmannian_atom(self, omega, ss_omega):
        rep = cone_membership(e_form(1, 2), omega, ss_omega)
        assert rep.status in ("Interior", "Boundary")
        assert rep.meta["residual"] <= 1e-8
        assert rep.certificate is not None
        # certificate reproduces the element within 1e-8
        recon = ExteriorElement.zero(4, 2)
        for w, pl in zip(rep.certificate["weights"],
                         rep.certificate["planes"]):
            recon = recon + w * pl.pvector()
        assert (recon - e_form(1, 2)).norm() < 1e-8

    def test_midpoint_member(self, omega, ss_omega):
        xi = 0.5 * ss_omega.planes[0].pvector() + \
            0.5 * ss_omega.planes[1].pvector()
        rep = cone_membership(xi, omega, ss_omega)
        assert rep.status in ("Interior", "Boundary")
        assert rep.certificate is not None

    def test_outside_by_low_pairing(self, lam, ss_lam):
        # phi(e34) = 1/2 < 1 at unit mass: membership is impossible
        rep = cone_membership(e_form(3, 4), lam, ss_lam)
        assert rep.status == "Outside"
        assert rep.margin < -0.5

    def test_calibrated_plane_off_the_sample(self):
        # e123 is associative but no sampled plane: the polished comass
        # plane of xi, added before the column generation, carries it
        cal = catalogue("associative")
        ss = sample_grassmannian(cal, count=20, seed=5)
        xi = ExteriorElement.basis(7, (1, 2, 3))
        assert min((pl.pvector() - xi).norm() for pl in ss.planes) > 1e-3
        rep = cone_membership(xi, cal, ss)
        assert rep.status != "Outside" and not rep.meta["exact"]
        recon = ExteriorElement.zero(7, 3)
        for w, pl in zip(rep.certificate["weights"],
                         rep.certificate["planes"]):
            recon = recon + w * pl.pvector()
        assert (recon - xi).norm() < 1e-10

    def test_eq_2_4_random_simple(self, omega, ss_omega):
        # a unit simple 2-vector is a member iff phi(xi) is 1
        rng = np.random.default_rng(31)
        members = outsiders = 0
        for _ in range(10):
            _, xi = simple_from_frame(rng.standard_normal((2, 4)))
            val = pairing(omega.form, xi)
            rep = cone_membership(xi, omega, ss_omega)
            if abs(val - 1.0) <= 1e-6:
                assert rep.status != "Outside"
                members += 1
            else:
                assert rep.status == "Outside"
                outsiders += 1
        assert outsiders >= 5  # random planes are generically not calibrated

    @pytest.mark.parametrize("make_xi, status, lo, hi", [
        (lambda ss: e_form(1, 2) + e_form(3, 4), "Interior", 1e-3, np.inf),
        (lambda ss: 0.5 * (ss.planes[0].pvector() + ss.planes[1].pvector()),
         "Interior", 1e-6, np.inf),
        (lambda ss: ss.planes[0].pvector(), "Boundary", -1e-6, 1e-6),
    ], ids=["e12+e34", "midpoint", "atom"])
    def test_relative_interior_split(self, omega, ss_omega, make_xi, status,
                                     lo, hi):
        # strictly positive combinations of every atom are the relative
        # interior of the atoms' cone; a single atom spans an extreme ray
        rep = cone_membership(make_xi(ss_omega), omega, ss_omega)
        assert rep.status == status
        assert lo <= rep.margin <= hi

    @pytest.mark.parametrize("picks", [(0,), (0, 1), (2, 3, 5), range(40)])
    def test_margin_matches_highs(self, omega, ss_omega, picks):
        xi = ExteriorElement.zero(4, 2)
        for k in picks:
            xi = xi + (1.0 + 0.1 * k) * ss_omega.planes[k].pvector()
        rep = cone_membership(xi, omega, ss_omega)
        A = np.column_stack([pl.pvector().to_coeff_vector()
                             for pl in rep.meta["planes"]])
        recon = A @ rep.meta["weights"]
        # max t subject to A (d + t 1) = recon, d >= 0, t >= 0
        m = A.shape[1]
        c = np.append(np.zeros(m), -1.0)
        A_eq = np.column_stack([A, A.sum(axis=1)])
        ref = linprog(c, A_eq=A_eq, b_eq=recon, bounds=(0, None),
                      method="highs")
        assert ref.status == 0
        scale = xi.norm()
        assert abs(rep.margin - (-ref.fun) / scale) <= 1e-9
        res = solve_lp(c, A_eq, recon)
        assert res.status == "optimal"
        weights = res.x[:m] + res.x[m]
        assert weights.min() >= rep.margin * scale - 1e-9
        assert np.abs(A @ weights - recon).max() <= 1e-9

    def test_mismatch_rejected(self, omega, ss_omega):
        with pytest.raises(ValueError):
            cone_membership(ExteriorElement.basis(6, (1, 2)), omega, ss_omega)


def ref_nnls_membership(xi, cal, samples, max_rounds=20, seed=0):
    """The status by the NNLS column generation that sampled membership
    ran before the L1-residual LP; tests/test_kaehler.py and
    tests/test_grassmann.py check every sampled-route status against it
    (the loops price different forms, so their separating_min may differ).
    Each round solves NNLS over the atoms and prices the residual r = xi -
    A c with one ascent of -r/|r| over G(phi); the priced plane joins the
    atoms while it pairs positively with r.  Stops on a residual under
    1e-10 |xi|, a nonnegative pricing, ``max_rounds`` added planes or
    three rounds that shrink the residual by under 0.5%."""
    xi_vec = xi.to_coeff_vector()
    scale = max(np.linalg.norm(xi_vec), 1e-300)
    planes = list(samples.planes)
    cols = [samples.pvectors().T]
    cm_xi = comass((1.0 / scale) * xi, multistarts=8, seed=seed)
    polished, val = polish_plane(cal.form, cm_xi.plane)
    if val >= 1.0 - max(MEMBERSHIP_TOL, samples.tolerance):
        planes.append(polished)
        cols.append(polished.pvector().to_coeff_vector())
    A = np.column_stack(cols)
    coeffs, res = calibr.cones.nnls(A, xi_vec)
    stagnant = 0
    for round_k in range(max_rounds + 1):
        if res <= 1e-10 * scale:
            break
        r = xi_vec - A @ coeffs
        pricing = constrained_extremum(
            ExteriorElement.from_coeff_vector(
                cal.n, cal.p, -r / np.linalg.norm(r), drop_tol=0.0),
            cal, samples, "min", seed=seed + round_k,
            starts_limit=SEPARATION_STARTS, extra_starts=2)
        col = pricing.plane.pvector().to_coeff_vector()
        if (col @ r <= 1e-12 * scale * np.linalg.norm(r)
                or round_k == max_rounds or stagnant >= 3):
            break
        planes.append(pricing.plane)
        A = np.column_stack([A, col])
        res_prev = res
        coeffs, res = calibr.cones.nnls(A, xi_vec)
        stagnant = stagnant + 1 if res > 0.995 * res_prev else 0
    if res / scale > MEMBERSHIP_TOL:
        return "Outside"
    margin = _member_margin(A, coeffs / scale)
    return "Boundary" if abs(margin) <= BOUNDARY_TOL else "Interior"


class TestMassNorm:
    def test_simple_unit(self, gens):
        up, lo, _ = mass_norm_estimate(e_form(1, 2), gens)
        assert abs(up - 1.0) < 1e-8 and abs(lo - 1.0) < 1e-8

    def test_pair_frozen_oracle(self, gens):
        # LP + dual-certificate oracle both gave exactly 2 (pre-build)
        up, lo, meta = mass_norm_estimate(e_form(1, 2) + e_form(3, 4), gens)
        assert abs(up - 2.0) < 2e-6 and abs(lo - 2.0) < 2e-6
        assert up >= lo

    def test_homogeneity(self, gens):
        rng = np.random.default_rng(3)
        _, xi = simple_from_frame(rng.standard_normal((2, 4)))
        for c in (-2.5, 0.7, 4.0):
            up, lo, _ = mass_norm_estimate(c * xi, gens)
            assert abs(up - abs(c)) < 1e-7 * max(1, abs(c))
            assert abs(lo - abs(c)) < 1e-7 * max(1, abs(c))

    def test_upper_at_least_lower_random(self, gens):
        rng = np.random.default_rng(4)
        from calibr.exterior import lex_indices
        for _ in range(5):
            el = ExteriorElement(4, 2, {i: rng.standard_normal()
                                        for i in lex_indices(4, 2)})
            up, lo, _ = mass_norm_estimate(el, gens)
            assert up >= lo - 1e-12

    def test_zero_rejected(self, gens):
        with pytest.raises(ValueError):
            mass_norm_estimate(ExteriorElement.zero(4, 2), gens)

    @pytest.mark.parametrize("xi, count", [
        (ExteriorElement.basis(6, (1, 2)), 10),
        (ExteriorElement.basis(4, (1,)), 10),
        (ExteriorElement.basis(6, (1, 2)), 0)],
        ids=["R6-2-vector", "1-vector", "empty-sample"])
    def test_mismatch_rejected(self, xi, count):
        gens = random_plane_set(4, 2, count=count, seed=1)
        with pytest.raises(ValueError, match="degree/dimension mismatch"):
            mass_norm_estimate(xi, gens, seed=1)


def _half_nuclear_norm(two):
    """Closed-form mass of a 2-vector: half the nuclear norm of its skew
    matrix (Harvey-Lawson normal form)."""
    X = np.zeros((two.n, two.n))
    for (i, j), c in two.coeffs.items():
        X[i - 1, j - 1], X[j - 1, i - 1] = c, -c
    return 0.5 * float(np.linalg.svd(X, compute_uv=False).sum())


def _normal_form(xi):
    """Harvey-Lawson normal form xi = sum_k lam_k a_k ^ b_k (through the
    Hodge star for p = n-2): the unit simple atoms a_k ^ b_k and the polar
    form sum_k a^k ^ b^k, of comass one, pairing with xi to its mass.  Each
    atom is the top singular plane of the skew matrix X, which is then
    deflated by lam_k (a_k b_k^T - b_k a_k^T).  In degrees 1, n-1 and n
    xi is simple, and xi/|xi| is both the one atom and the polar form."""
    n, p = xi.n, xi.p
    if p in (1, n - 1, n):
        unit = (1.0 / xi.norm()) * xi
        return [unit], unit
    two = xi if p == 2 else hodge_star(xi)
    X = contraction_matrix(two.to_coeff_vector(), n, 2)
    sigma = np.linalg.svd(X, compute_uv=False)    # pairs lam_1, lam_1, ...
    atoms = []
    for _ in range(int((sigma[::2] > 1e-12 * sigma[0]).sum())):
        u, _, vt = np.linalg.svd(X)
        a, b = u[:, 0], vt[0] - (u[:, 0] @ vt[0]) * u[:, 0]
        b = b / np.linalg.norm(b)
        lam = a @ X @ b
        atoms.append(SimplePlane(np.array([a, b])).pvector())
        X = X - lam * (np.outer(a, b) - np.outer(b, a))
    polar = atoms[0]
    for atom in atoms[1:]:
        polar = polar + atom
    if p != 2:
        atoms, polar = [hodge_star(a) for a in atoms], hodge_star(polar)
    return atoms, polar


def _normal_form_bracket(xi, gens):
    """The normal-form route mass_norm_estimate took before its closed form:
    upper is the min-l1 LP over the coordinate planes, the generators and
    the normal form's atoms, lower the polar form's pairing divided by its
    comass."""
    atoms, polar = _normal_form(xi)
    A = np.column_stack([*np.eye(len(xi.to_coeff_vector())),
                         *gens.pvectors(),
                         *(a.to_coeff_vector() for a in atoms)])
    res = solve_lp(np.ones(2 * A.shape[1]), np.hstack([A, -A]),
                   xi.to_coeff_vector())
    assert res.status == 'optimal'
    return res.obj, pairing(polar, xi) / comass(polar).value


def _forbidden(*args, **kwargs):
    raise AssertionError("the closed-form route solved an LP or a comass")


class TestMassNormClosedForm:
    @pytest.mark.parametrize("n,p", [(4, 2), (5, 2), (5, 3), (4, 1), (4, 3),
                                     (4, 4), (6, 4)])
    def test_one_round_exact(self, n, p, monkeypatch):
        # the closed form, checked against the normal-form LP route and the
        # textbook formula; it reaches neither the simplex nor a comass
        rng = np.random.default_rng(10 * n + p)
        gens = random_plane_set(n, p, count=40, seed=9)
        xis = [ExteriorElement(n, p, {idx: rng.standard_normal()
                                      for idx in lex_indices(n, p)})
               for _ in range(3)]
        refs = [_normal_form_bracket(xi, gens) for xi in xis]
        monkeypatch.setattr(calibr.cones, "solve_lp", _forbidden)
        monkeypatch.setattr(calibr.cones, "comass", _forbidden)
        for xi, (ref_up, ref_lo) in zip(xis, refs):
            exact = (xi.norm() if p in (1, n - 1, n) else
                     _half_nuclear_norm(xi if p == 2 else hodge_star(xi)))
            up, lo, meta = mass_norm_estimate(xi, gens)
            assert meta == {"rounds": 0, "dual_comass": None,
                            "saturated": True, "atoms": 0,
                            "lower_certified": True, "capped": False}
            assert list(meta) == ["rounds", "dual_comass", "saturated",
                                  "atoms", "lower_certified", "capped"]
            assert up == lo
            assert abs(up - exact) <= 1e-12 * exact
            assert abs(up - ref_up) <= 1e-9 * ref_up
            assert abs(lo - ref_lo) <= 1e-9 * ref_lo

    def test_r6_3vector_lower_uncertified(self):
        rng = np.random.default_rng(6)
        xi = ExteriorElement(6, 3, {idx: rng.standard_normal()
                                    for idx in lex_indices(6, 3)})
        gens = random_plane_set(6, 3, count=40, seed=9)
        up, lo, meta = mass_norm_estimate(xi, gens, max_rounds=3,
                                          comass_multistarts=4)
        assert not meta["lower_certified"]
        assert up >= lo

    def test_round_cap_reported(self, gens):
        # an R^6 3-vector leaves at the cap with the bracket open; an R^4
        # 2-vector takes the closed form and runs no round
        rng = np.random.default_rng(6)
        xi = ExteriorElement(6, 3, {idx: rng.standard_normal()
                                    for idx in lex_indices(6, 3)})
        up, lo, meta = mass_norm_estimate(
            xi, random_plane_set(6, 3, count=40, seed=9), max_rounds=2,
            comass_multistarts=4)
        assert meta["capped"] and meta["rounds"] == 2
        assert up - lo > 1e-9 * up
        up, lo, meta = mass_norm_estimate(e_form(1, 2) + 0.5 * e_form(3, 4),
                                          gens, max_rounds=2)
        assert not meta["capped"] and meta["rounds"] == 0

    def test_inverted_bracket_raises(self, monkeypatch):
        # a comass reported at half its value doubles the lower bound of an
        # R^6 3-vector, which has no closed form
        import dataclasses
        real = calibr.cones.comass

        def halved(phi, **kwargs):
            res = real(phi, **kwargs)
            return dataclasses.replace(res, value=0.5 * res.value)
        monkeypatch.setattr(calibr.cones, "comass", halved)
        rng = np.random.default_rng(6)
        xi = ExteriorElement(6, 3, {idx: rng.standard_normal()
                                    for idx in lex_indices(6, 3)})
        with pytest.raises(RuntimeError, match="inverted"):
            mass_norm_estimate(xi, random_plane_set(6, 3, count=40, seed=9),
                               max_rounds=2, comass_multistarts=4)


class TestPositivity:
    def test_phi_interior(self, omega, ss_omega):
        rep = positivity_classify(omega.form, omega, ss_omega,
                                  starts_limit=10)
        assert rep.status == "Interior"
        assert abs(rep.margin - 1.0) < 1e-9

    def test_boundary_form_oracle(self, omega, ss_omega):
        # min of dx2^dy2 over complex lines is 0 (pre-build oracle)
        rep = positivity_classify(e_form(3, 4), omega, ss_omega,
                                  starts_limit=10)
        assert rep.status == "Boundary"
        assert abs(rep.margin) < 1e-6
        # witness is the x1y1 line
        assert np.linalg.norm(rep.witness.frame[:, 2:]) < 1e-3

    def test_outside(self, omega, ss_omega):
        rep = positivity_classify(-1.0 * e_form(1, 2), omega, ss_omega,
                                  starts_limit=10)
        assert rep.status == "Outside"
        assert abs(rep.margin + 1.0) < 1e-8

    def test_scaling_invariance(self, omega, ss_omega):
        alpha = omega.form + 0.3 * e_form(1, 3)
        rep1 = positivity_classify(alpha, omega, ss_omega, starts_limit=10)
        rep2 = positivity_classify(4.0 * alpha, omega, ss_omega,
                                   starts_limit=10)
        assert rep1.status == rep2.status
        assert abs(rep2.margin - 4.0 * rep1.margin) < 1e-6

    def test_polar_consistency(self, omega, ss_omega):
        # Interior form with margin m pairs >= m * sum(weights) with members
        alpha = omega.form
        rep_a = positivity_classify(alpha, omega, ss_omega, starts_limit=10)
        xi = 0.5 * ss_omega.planes[2].pvector() + \
            1.5 * ss_omega.planes[3].pvector()
        rep_x = cone_membership(xi, omega, ss_omega)
        assert rep_x.certificate is not None
        total = sum(rep_x.certificate["weights"])
        assert pairing(alpha, xi) >= rep_a.margin * total - 1e-6

    @pytest.mark.parametrize("name,opts", [
        ("volume", {}), ("omega", {"starts_limit": 8}), ("lam", {})])
    def test_perturbed_phi_interior(self, name, opts, request):
        # phi + 0.1 dx_I stays strictly positive for every I
        if name == "volume":
            cal = catalogue("volume", 3)
            ss = sample_grassmannian(cal, count=3, seed=1)
        else:
            cal = request.getfixturevalue(name)
            ss = request.getfixturevalue("ss_" + name)
        for idx in lex_indices(cal.n, cal.p):
            rep = positivity_classify(
                cal.form + ExteriorElement(cal.n, cal.p, {idx: 0.1}), cal,
                ss, **opts)
            assert rep.status == "Interior"
            assert rep.margin > 1e-6
            if name == "lam":
                # on the unique plane the margin is 1 + 0.1 b(plane)
                assert rep.margin >= 1.0 - 0.1 - 1e-9


class TestContractionBoundary:
    # phi_e = e -| (e ^ phi) for a unit e sits on the cone boundary exactly
    # when e lies in a phi-plane (e1 on omega gives e34, as in
    # TestPositivity::test_boundary_form_oracle)
    def test_lambda_direction_outside_spans(self, lam, ss_lam):
        e = np.zeros(4)
        e[2] = 1.0
        phi_e = interior_product(e, wedge(ExteriorElement.from_vector(e),
                                          lam.form))
        assert phi_e.coeffs == {(1, 2): 1.0}
        rep = positivity_classify(phi_e, lam, ss_lam)
        assert rep.status == "Interior"
        assert abs(rep.margin - 1.0) < 1e-9

    def test_volume_contraction_vanishes(self):
        vol = catalogue("volume", 3)
        ss = sample_grassmannian(vol, count=3, seed=1)
        # e ^ vol vanishes in top degree, so phi_e is the zero form
        rep = positivity_classify(ExteriorElement.zero(3, 3), vol, ss)
        assert rep.status == "Boundary"
        assert rep.margin == 0.0


class TestLemma25:
    def test_grassmannian_atom_all_hold(self, omega, ss_omega, gens):
        rep = lemma_2_5_check(e_form(1, 2), omega, ss_omega, gens)
        assert all(v[0] for v in rep.conditions.values())
        assert rep.agree

    def test_midpoint_all_hold(self, omega, ss_omega, gens):
        xi = 0.5 * ss_omega.planes[0].pvector() + \
            0.5 * ss_omega.planes[1].pvector()
        rep = lemma_2_5_check(xi, omega, ss_omega, gens)
        assert all(v[0] for v in rep.conditions.values())
        assert rep.agree
        lo, up = rep.mass_bracket
        assert lo <= 1.0 + 2e-5 and up >= 1.0 - 2e-5

    def test_kaehler_centre_interior(self, omega, ss_omega, gens):
        xi = 0.5 * (e_form(1, 2) + e_form(3, 4))
        rep = lemma_2_5_check(xi, omega, ss_omega, gens)
        assert all(v[0] for v in rep.conditions.values())
        assert rep.conditions["cone_membership"][1] > 0.0
        # the hull LP's least L1 residual is reached exactly
        assert rep.conditions["hull_membership"] == (True, 0.0)

    def test_low_pairing_all_fail(self, lam, ss_lam, gens):
        rep = lemma_2_5_check(e_form(3, 4), lam, ss_lam, gens)
        assert not any(v[0] for v in rep.conditions.values())
        assert rep.agree  # consistent failure

    def test_mass_precondition(self, omega, ss_omega, gens):
        with pytest.raises(ValueError, match="mass-normalization"):
            lemma_2_5_check(3.0 * e_form(1, 2), omega, ss_omega, gens)

