import math

import numpy as np
import pytest

import calibr.grassmann
from calibr.acceptance import NORMAL_ENTRIES
from calibr.calibrations import CATALOGUE_SPECS, Calibration, catalogue
from calibr.exterior import (ExteriorElement, _pluecker, compound,
                             derivation_extend, lex_indices, pairing, wedge)
from calibr.fields import (ScalarField, builtin_field, compose,
                           field_from_json, quadratic_field)
from calibr.grassmann import (_ascent_source, grassmann,
                              hyperplane_basis, kaehler_matrix,
                              kaehler_structure, phi_structure, pullback,
                              reduce_calibration, rng_stream,
                              sample_grassmannian, span_split)
from calibr.hessian import (_stable_span_rows, d_phi,
                            hessian_form, normality_check,
                            phi_flat_check, pluriharmonic_mod_d_residual,
                            psh_classify, symbol, trace_check)
from calibr.polynomial import Polynomial


@pytest.fixture(scope="module")
def omega():
    return catalogue("kaehler", 2, 1)


@pytest.fixture(scope="module")
def lam():
    return catalogue("lambda_example", 0.5)


@pytest.fixture(scope="module")
def ss_omega(omega):
    return sample_grassmannian(omega, tol=1e-6, count=30, seed=3)


@pytest.fixture(scope="module")
def ss_lam(lam):
    return sample_grassmannian(lam, tol=1e-6, count=5, seed=3)


class TestScalarField:
    def test_field_from_json(self):
        f = field_from_json({"n": 3, "terms": [
            {"exps": [2, 0, 0], "coeff": 1.0},
            {"exps": [0, 1, 0], "coeff": -2.0}]})
        assert f(np.array([2.0, 1.0, 0.0])) == 2.0

    @pytest.mark.parametrize("name,field_name,terms", [
        ("normsq", "normsq", [((2, 0, 0, 0), 1.0), ((0, 2, 0, 0), 1.0),
                              ((0, 0, 2, 0), 1.0), ((0, 0, 0, 2), 1.0)]),
        ("norm_sq", "normsq", [((2, 0, 0, 0), 1.0), ((0, 2, 0, 0), 1.0),
                               ((0, 0, 2, 0), 1.0), ((0, 0, 0, 2), 1.0)]),
        ("half_normsq", "half_normsq", [
            ((2, 0, 0, 0), 0.5), ((0, 2, 0, 0), 0.5),
            ((0, 0, 2, 0), 0.5), ((0, 0, 0, 2), 0.5)]),
        ("neg_normsq", "neg_normsq", [
            ((2, 0, 0, 0), -1.0), ((0, 2, 0, 0), -1.0),
            ((0, 0, 2, 0), -1.0), ((0, 0, 0, 2), -1.0)]),
        ("re_z1", "re_z1", [((1, 0, 0, 0), 1.0)]),
        ("abs_z1_sq", "abs_z1_sq", [((2, 0, 0, 0), 1.0), ((0, 2, 0, 0), 1.0)]),
        ("re_z1_sq", "re_z1_sq", [((2, 0, 0, 0), 1.0), ((0, 2, 0, 0), -1.0)]),
        ("neg_x3_sq", "neg_x3_sq", [((0, 0, 2, 0), -1.0)]),
        ("coord:3", "coord:3", [((0, 0, 1, 0), 1.0)]),
    ])
    def test_builtin_terms(self, name, field_name, terms):
        f = builtin_field(name, 4)
        assert f.name == field_name
        assert list(f.poly.terms.items()) == terms       # insertion order too

    @pytest.mark.parametrize("name,n,k", [
        ("abs_z1_sq", 1, 2), ("re_z1_sq", 1, 2), ("neg_x3_sq", 2, 3)])
    def test_builtin_dimension_errors(self, name, n, k):
        with pytest.raises(ValueError, match=f"^{name} needs n >= {k}$"):
            builtin_field(name, n)
        assert builtin_field(name, k).n == k

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="unknown builtin field 'nope'"):
            builtin_field("nope", 4)

    def test_suppliers_are_required(self):
        with pytest.raises(TypeError):
            ScalarField(2, lambda x: x[0] ** 2)

    def test_compose_chain_rule(self):
        f = builtin_field("half_normsq", 3)
        g = compose(f, math.exp, math.exp, math.exp)
        x = np.array([0.2, -0.4, 0.1])
        v = f(x)
        expect_grad = math.exp(v) * f.gradient(x)
        assert np.abs(g.gradient(x) - expect_grad).max() < 1e-12
        g_f = f.gradient(x)
        expect_hess = math.exp(v) * (f.hessian(x) + np.outer(g_f, g_f))
        assert np.abs(g.hessian(x) - expect_hess).max() < 1e-12


class TestDPhi:
    def test_conjugate_differential(self, omega):
        out = d_phi(builtin_field("re_z1", 4), np.zeros(4), omega)
        assert out.coeffs == {(2,): 1.0}

    def test_lambda_contraction(self, lam):
        out = d_phi(builtin_field("coord:3", 4), np.ones(4), lam)
        assert out.coeffs == {(4,): 0.5}

    def test_constant_field(self, omega):
        const = ScalarField.from_polynomial(Polynomial.constant(4, 3.0))
        assert d_phi(const, np.zeros(4), omega).is_zero()


class TestHessianForm:
    def test_half_normsq_gives_p_phi(self, omega):
        H = hessian_form(builtin_field("half_normsq", 4),
                         np.array([0.5, 1.0, -2.0, 0.1]), omega)
        assert H.allclose(2.0 * omega.form, tol=1e-9)

    def test_pluriharmonic_oracle(self, omega, ss_omega):
        # trace of diag(2,-2,0,0) over any complex line is 0 (oracle)
        H = hessian_form(builtin_field("re_z1_sq", 4), np.zeros(4), omega)
        for pl in ss_omega.planes:
            assert abs(pairing(H, pl.pvector())) < 1e-12

    def test_lambda_appendix_geometry(self, lam, ss_lam):
        H = hessian_form(builtin_field("neg_x3_sq", 4), np.zeros(4), lam)
        assert abs(pairing(H, ss_lam.planes[0].pvector())) < 1e-12


class TestTraceCheck:
    def test_indefinite_diagonal(self, omega, ss_omega):
        A = np.diag([2.0, -2.0, 0.0, 0.0])
        f = quadratic_field(2 * A)  # quadratic_field halves
        pl = next(p for p in ss_omega.planes
                  if np.linalg.norm(p.frame[:, 2:]) < 0.9)
        lhs, rhs, gap = trace_check(f, np.zeros(4), pl, omega)
        assert gap < 1e-9

    def test_identity_hessian(self, omega, ss_omega):
        f = builtin_field("half_normsq", 4)
        for pl in ss_omega.planes[:5]:
            lhs, rhs, gap = trace_check(f, np.ones(4), pl, omega)
            assert abs(lhs - 2.0) < 1e-9 and gap < 1e-9

    def test_random_quadratics(self, omega, ss_omega):
        rng = np.random.default_rng(7)
        for k in range(50):
            A = rng.standard_normal((4, 4))
            f = quadratic_field(A + A.T)
            pl = ss_omega.planes[k % len(ss_omega)]
            _, _, gap = trace_check(f, rng.standard_normal(4), pl, omega)
            assert gap < 1e-9


class TestPsh:
    def test_strictly_psh(self, omega, ss_omega):
        marks = psh_classify(builtin_field("half_normsq", 4),
                             [np.zeros(4), np.ones(4)], omega, ss_omega,
                             starts_limit=10)
        assert all(m.status == "StrictlyPsh" for m in marks)
        assert all(abs(m.margin - 2.0) < 1e-8 for m in marks)

    def test_appendix_blind_spot(self, lam, ss_lam):
        # concave in x3, but the unique plane never sees it
        marks = psh_classify(builtin_field("neg_x3_sq", 4),
                             [np.zeros(4), np.array([1.0, 2.0, 3.0, 4.0])],
                             lam, ss_lam)
        assert all(m.status == "Psh" for m in marks)

    def test_sampled_route(self):
        # associative is not Kaehler, so its minimum over G(phi) is started
        # from the sample: an associative plane holds e3, where the
        # Hessian -2 e3 e3^T of -x3^2 pairs to -2
        cal = catalogue("associative")
        ss = sample_grassmannian(cal, count=5, seed=3)
        marks = psh_classify(builtin_field("neg_x3_sq", 7), [np.zeros(7)],
                             cal, ss, starts_limit=4)
        assert marks[0].status == "NotPsh" and marks[0].witness is not None
        assert abs(marks[0].margin + 2.0) < 1e-6

    def test_not_psh_with_witness(self, omega, ss_omega):
        marks = psh_classify(builtin_field("neg_normsq", 4), [np.zeros(4)],
                             omega, ss_omega, starts_limit=10)
        assert marks[0].status == "NotPsh"
        assert marks[0].witness is not None

    def test_composition_stability(self, omega, ss_omega):
        f = builtin_field("half_normsq", 4)
        g = compose(f, math.exp, math.exp, math.exp)
        marks = psh_classify(g, [np.zeros(4), 0.4 * np.ones(4)], omega,
                             ss_omega, starts_limit=10)
        assert all(m.status in ("Psh", "StrictlyPsh") for m in marks)


class TestModD:
    def test_linear_residual_zero(self, omega, ss_omega):
        r = pluriharmonic_mod_d_residual(builtin_field("re_z1", 4),
                                         np.array([1.0, 0, 0, 0]), omega,
                                         ss_omega)
        assert r.residual < 1e-12

    def test_abs_z1_sq_oracle(self, omega, ss_omega):
        # least-squares oracle at the probe gave residual 0 (pre-build)
        r = pluriharmonic_mod_d_residual(builtin_field("abs_z1_sq", 4),
                                         np.array([1.0, 0, 0, 0]), omega,
                                         ss_omega)
        assert r.residual < 1e-9
        # the fitted decomposition reproduces the Hessian form
        from calibr.exterior import wedge
        H = hessian_form(builtin_field("abs_z1_sq", 4),
                         np.array([1.0, 0, 0, 0]), omega)
        df = ExteriorElement.from_vector(
            builtin_field("abs_z1_sq", 4).gradient(np.array([1.0, 0, 0, 0])))
        recon = wedge(df, r.alpha_fit) + r.sigma_fit
        assert (H - recon).norm() < 1e-9

    def test_generic_quadratic_nonzero(self, omega, ss_omega):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4))
        f = quadratic_field(A + A.T)
        r = pluriharmonic_mod_d_residual(
            f, np.array([0.7, -0.3, 0.4, 0.2]), omega, ss_omega)
        assert r.residual > 1e-5   # 10x the declared tolerance

    @pytest.mark.parametrize("name,params,x", [
        ("kaehler", (2, 1), [1.0, 0.5, 0, 0]),
        ("associative", (), [1.0, 0.5, 0, 0, 0.2, 0, 0])])
    def test_bits_of_the_per_index_wedge_columns(self, name, params, x):
        # the fit over the columns df ^ dx_J built one wedge at a time
        cal = catalogue(name, *params)
        ss = sample_grassmannian(cal, count=8, seed=1729)
        f, x = builtin_field("normsq", cal.n), np.array(x)
        df = ExteriorElement.from_vector(f.gradient(x))
        pm1 = lex_indices(cal.n, cal.p - 1)
        A = np.column_stack(
            [wedge(df, ExteriorElement(cal.n, cal.p - 1, {J: 1.0}))
             .to_coeff_vector() for J in pm1] + list(ss.annihilator()))
        H = hessian_form(f, x, cal).to_coeff_vector()
        coef = np.linalg.lstsq(A, H, rcond=None)[0]
        r = pluriharmonic_mod_d_residual(f, x, cal, ss)
        assert r.residual == float(np.linalg.norm(H - A @ coef))
        assert r.alpha_fit.coeffs == ExteriorElement(
            cal.n, cal.p - 1, dict(zip(pm1, coef))).coeffs

    def test_reparametrization_invariance(self, omega, ss_omega):
        # chi(t) = t^3 + t has chi' never zero
        f = builtin_field("abs_z1_sq", 4)
        g = compose(f, lambda t: t ** 3 + t, lambda t: 3 * t * t + 1,
                    lambda t: 6 * t)
        for x in (np.array([1.0, 0, 0, 0]), np.array([0.3, 0.4, 0, 0])):
            rf = pluriharmonic_mod_d_residual(f, x, omega, ss_omega)
            rg = pluriharmonic_mod_d_residual(g, x, omega, ss_omega)
            assert rf.residual < 1e-9
            assert rg.residual < 1e-8


class TestFlat:
    def test_linear_flat(self, omega):
        rep = phi_flat_check(builtin_field("re_z1", 4),
                             np.array([1.0, 0, 0, 0]), omega)
        assert rep.flat and not rep.vacuous

    def test_abs_z1_sq_flat(self, omega):
        rep = phi_flat_check(builtin_field("abs_z1_sq", 4),
                             np.array([1.0, 0, 0, 0]), omega)
        assert rep.flat and not rep.vacuous

    def test_half_normsq_not_flat(self, omega):
        # identity Hessian: trace 2 on every tangential complex line
        rep = phi_flat_check(builtin_field("half_normsq", 4),
                             np.array([1.0, 0, 0, 0]), omega)
        assert not rep.flat
        assert abs(rep.worst_value - 2.0) < 1e-6

    def test_lambda_vacuous(self, lam):
        # gradient e1 lies inside the only plane: no tangential phi-plane
        rep = phi_flat_check(builtin_field("coord:1", 4),
                             np.array([0.2, 0.3, 0.1, 0.4]), lam)
        assert rep.flat and rep.vacuous

    def test_vanishing_gradient_rejected(self, omega):
        with pytest.raises(ValueError, match="gradient"):
            phi_flat_check(builtin_field("half_normsq", 4), np.zeros(4),
                           omega)

    def test_modd_flatness_equivalence_on_normal_calibration(
            self, omega, ss_omega):
        # on a normal calibration: mod-d residual small <=> level set flat
        x = np.array([1.0, 0, 0, 0])
        good = builtin_field("abs_z1_sq", 4)
        assert pluriharmonic_mod_d_residual(
            good, x, omega, ss_omega).residual < 1e-9
        assert phi_flat_check(good, x, omega).flat
        rng = np.random.default_rng(11)
        A = rng.standard_normal((4, 4))
        bad = quadratic_field(A + A.T)
        assert pluriharmonic_mod_d_residual(
            bad, x, omega, ss_omega).residual > 1e-5
        assert not phi_flat_check(bad, x, omega).flat

    @pytest.mark.parametrize("name,params", [("kaehler", (3, 1)),
                                             ("special_lagrangian", (3,))])
    def test_reaches_drawn_maximum(self, name, params):
        # no phi-plane of 20,000 drawn inside grad f(x)^perp pairs with the
        # Hessian beyond the reported extremum, which a tangential phi-plane
        # attains
        cal = catalogue(name, *params)
        rng = np.random.default_rng([0, 5])
        B = rng.standard_normal((cal.n, cal.n))
        x = rng.standard_normal(cal.n)
        f = quadratic_field(B + B.T)
        rep = phi_flat_check(f, x, cal, seed=1729)
        assert not rep.flat and not rep.vacuous
        # both restrict to a calibration Kaehler on a proper top block
        # (of codegree 2 for special_lagrangian(3))
        assert rep.exact
        g = f.gradient(x)
        U = phi_structure(cal.form).draw(np.random.default_rng(1729), 20_000,
                                         normal=g)
        H = hessian_form(f, x, cal)
        drawn = np.abs(_pluecker(U) @ H.to_coeff_vector()).max()
        assert abs(rep.worst_value) >= drawn - 1e-6
        xi = rep.worst_plane.pvector()
        assert abs(pairing(H, xi) - rep.worst_value) < 1e-9
        assert pairing(cal.form, xi) > 1.0 - 1e-6
        assert np.abs(rep.worst_plane.frame @ g).max() < 1e-12

    def test_kaehler_matches_complex_lines(self):
        # on kaehler(3,1) the tangential phi-planes are the complex lines in
        # (Cg)^perp, over which the extremum is one eigh of kaehler_matrix
        # in a complex orthonormal basis; the best-found value must meet it
        # from both sides, on a plane where phi = 1 to rounding
        cal = catalogue("kaehler", 3, 1)
        rng = np.random.default_rng([0, 5, 0])
        B = rng.standard_normal((6, 6))
        x = rng.standard_normal(6)
        f = quadratic_field(B + B.T)
        rep = phi_flat_check(f, x, cal, seed=1729)
        J, _ = kaehler_structure(cal.form)
        g = f.gradient(x)
        basis = np.column_stack([g, J @ g]) / np.linalg.norm(g)
        for e in np.eye(6)[[0, 2]]:     # e2 = J e1 would add nothing
            v = e - basis @ (basis.T @ e)
            v /= np.linalg.norm(v)
            basis = np.column_stack([basis, v, J @ v])
        assert np.abs(basis.T @ basis - np.eye(6)).max() < 1e-12
        Q = basis[:, 2:]
        H = hessian_form(f, x, cal)
        lam = np.linalg.eigvalsh(kaehler_matrix(pullback(H, Q), Q.T @ J @ Q))
        exact = max(lam, key=abs)
        assert abs(exact - 5.806664281) < 1e-9
        assert abs(rep.worst_value - exact) <= 1e-9
        assert abs(pairing(cal.form, rep.worst_plane.pvector()) - 1.0) <= 1e-12

    def test_kaehler_exact_on_the_complex_hyperplane(self):
        # kaehler(3,1) restricted to grad f(x)^perp is Kaehler on its top
        # block span{g, Jg}^perp, so the extremum over the tangential
        # complex lines is one eigh there; it must meet the eigvalsh value
        # of the complex orthonormal basis built as in
        # test_kaehler_matches_complex_lines
        cal = catalogue("kaehler", 3, 1)
        rng = np.random.default_rng([0, 5, 0])
        B = rng.standard_normal((6, 6))
        x = rng.standard_normal(6)
        f = quadratic_field(B + B.T)
        rep = phi_flat_check(f, x, cal, seed=1729)
        assert rep.exact and not rep.flat and not rep.vacuous
        J, _ = kaehler_structure(cal.form)
        g = f.gradient(x)
        basis = np.column_stack([g, J @ g]) / np.linalg.norm(g)
        for e in np.eye(6)[[0, 2]]:
            v = e - basis @ (basis.T @ e)
            v /= np.linalg.norm(v)
            basis = np.column_stack([basis, v, J @ v])
        Q = basis[:, 2:]
        H = hessian_form(f, x, cal)
        lam = np.linalg.eigvalsh(kaehler_matrix(pullback(H, Q), Q.T @ J @ Q))
        assert abs(rep.worst_value - max(lam, key=abs)) <= 1e-12
        assert abs(pairing(cal.form, rep.worst_plane.pvector()) - 1.0) <= 1e-12

    def test_coassociative_exact(self):
        # phi restricted to a hyperplane is Kaehler in codegree 2; normsq
        # has Hessian 2 I, which pairs with every 4-plane to 8
        rep = phi_flat_check(builtin_field("normsq", 7),
                             np.array([1.0, 0.5, 0, 0, 0.2, 0, 0]),
                             catalogue("coassociative"), seed=1729)
        assert rep.exact and not rep.flat and not rep.vacuous
        assert abs(rep.worst_value - 8.0) < 1e-12

    @pytest.mark.parametrize("name,params", [("kaehler", (2, 1)),
                                             ("kaehler", (3, 2)),
                                             ("quaternionic", (2,))])
    def test_single_plane_exact(self, name, params):
        # G(phi) holds one plane inside grad f(x)^perp (a complex or
        # quaternionic line, or its complement), so flatness reads the
        # Hessian on it, exactly
        cal = catalogue(name, *params)
        rng = np.random.default_rng([0, 5, 0])
        B = rng.standard_normal((cal.n, cal.n))
        x = rng.standard_normal(cal.n)
        f = quadratic_field(B + B.T)
        rep = phi_flat_check(f, x, cal, seed=1729)
        assert rep.exact and not rep.flat and not rep.vacuous
        U = phi_structure(cal.form).draw(np.random.default_rng(3), 1,
                                         normal=f.gradient(x))
        H = hessian_form(f, x, cal)
        assert abs(rep.worst_value - (_pluecker(U) @ H.to_coeff_vector())[0]) \
            < 1e-10
        assert abs(pairing(H, rep.worst_plane.pvector()) - rep.worst_value) \
            < 1e-12

    def test_sampled_restriction(self, lam):
        # gradient e4 leaves the plane e12 tangential; every plane drawn
        # from the top block span{e1, e2} is e12, so the Hessian
        # diag(1, 0, 0, 1) is read off it, exactly 1 up to the rounding of
        # the drawn frame's Pluecker coordinate c^2 + s^2
        rep = phi_flat_check(quadratic_field(np.diag([1.0, 0, 0, 1])),
                             np.array([0.0, 0, 0, 1]), lam)
        assert not rep.flat and not rep.vacuous and rep.exact
        assert abs(rep.worst_value - 1.0) <= 2 * np.finfo(float).eps

    @pytest.mark.parametrize("name,params,x", [
        ("lambda_example", (0.5,), [1.0, 0, 0, 0]),
        ("volume", (3,), [1.0, 0, 0])], ids=["comass-half", "zero"])
    def test_vacuous_exact(self, name, params, x):
        # lambda restricts to 0.5 e34, whose comass 0.5 is a singular value;
        # a 2-plane holds no 3-plane, so volume(3) restricts to zero
        rep = phi_flat_check(builtin_field("normsq", len(x)), np.array(x),
                             catalogue(name, *params))
        assert rep.flat and rep.vacuous and rep.exact

    def test_vacuous_best_found(self):
        # e123 + 0.5 e456 restricts to 0.5 e456 on e1^perp, whose comass
        # the ascent finds below one: vacuous, but best-found
        cal = Calibration(ExteriorElement(7, 3, {(1, 2, 3): 1.0,
                                                 (4, 5, 6): 0.5}), "split")
        rep = phi_flat_check(builtin_field("normsq", 7), np.eye(7)[0], cal)
        assert rep.flat and rep.vacuous and not rep.exact


class TestNormality:
    def test_kaehler_quick(self, omega):
        rep = normality_check(omega, trials=6, seed=2)
        assert rep.normal
        assert rep.worst_mismatch < 1e-8

    def test_lambda_exploratory_degenerate(self, lam):
        # restricted comass drops below one for generic hyperplanes, so all
        # trials are degenerate; recorded as exploratory output, not a fact
        rep = normality_check(lam, trials=6, seed=2)
        assert rep.degenerate == rep.trials
        assert rep.normal  # vacuously: no non-degenerate trial failed


def projector_distance(rows_a, rows_b):
    """Spectral distance of the orthogonal projectors onto two row spans."""
    A, B = span_split(rows_a)[0], span_split(rows_b)[0]
    return float(np.linalg.norm(A.T @ A - B.T @ B, 2))


class TestNormalityAgainstAscent:
    """The spans of the planes drawn from `phi_structure` against the ascent
    half of `grassmann`, kept as the reference and as the route of every
    unstructured form."""

    @pytest.mark.parametrize("name,params,rank", [
        (name, params, rank) for (name, params), rank
        in zip(NORMAL_ENTRIES, (4, 9, 13, 28, 28, 63, 20))])
    def test_full_span(self, name, params, rank):
        cal = catalogue(name, *params)
        drawn = _stable_span_rows(grassmann(cal, 11), 1.0, None, 24, 400)
        ascended = _stable_span_rows(_ascent_source(cal, 11), 1.0, None, 24,
                                     400)
        assert np.linalg.matrix_rank(drawn, tol=1e-8) == rank
        assert np.linalg.matrix_rank(ascended, tol=1e-8) == rank
        assert projector_distance(drawn, ascended) < 1e-8

    @pytest.mark.parametrize("name,params", NORMAL_ENTRIES)
    def test_restricted_span(self, name, params):
        cal = catalogue(name, *params)
        for t in range(3):
            u = rng_stream(13, t).standard_normal(cal.n)
            u /= np.linalg.norm(u)
            to_w = compound(hyperplane_basis(u), cal.p)
            drawn = _stable_span_rows(grassmann(cal, 17 + t, u), 1.0, to_w,
                                      16, 240)
            ascended = _stable_span_rows(_ascent_source(cal, 17 + t, u), 1.0,
                                         to_w, 16, 240)
            assert projector_distance(drawn, ascended) < 1e-8

    def test_perturbed_form_takes_the_ascent(self, monkeypatch):
        # sampling, normality and flatness all take the ascent half of the
        # one source on associative + 1e-6 e124, and none on associative
        calls = []
        ascent = calibr.grassmann._ascent_source

        def spy(cal, *args, **kwargs):
            calls.append(cal.name)
            return ascent(cal, *args, **kwargs)
        monkeypatch.setattr(calibr.grassmann, "_ascent_source", spy)
        f = builtin_field("normsq", 7)
        x = np.array([1.0, 0.5, 0, 0, 0.2, 0, 0])
        assoc = catalogue("associative")
        perturbed = Calibration(
            assoc.form + ExteriorElement(7, 3, {(1, 2, 4): 1e-6}), "perturbed")
        for cal, route in ((assoc, []), (perturbed, ["perturbed"])):
            for check in (lambda: sample_grassmannian(cal, count=2, seed=3),
                          lambda: normality_check(cal, trials=1, seed=3),
                          lambda: phi_flat_check(f, x, cal, seed=3)):
                calls.clear()
                check()
                assert calls[:1] == route and set(calls) <= set(route)


class TestSwappedSpecialLagrangian:
    """special_lagrangian(3) with x1 and y1 swapped, which `phi_structure`
    (matching SL in the catalogue coordinates only) does not detect: its
    ascended planes must agree with SL(3)'s drawn ones, and its flatness
    with SL(3)'s, both exact on the restriction to a hyperplane, a
    codegree-2 calibration."""

    P = np.eye(6)[:, [1, 0, 2, 3, 4, 5]]

    @pytest.fixture(scope="class")
    def swapped(self):
        sl = catalogue("special_lagrangian", 3)
        cal = Calibration(pullback(sl.form, self.P), "swapped")
        assert phi_structure(cal.form) is None
        return cal

    def test_normal(self, swapped):
        rep = normality_check(swapped, trials=4, seed=1729)
        assert rep.normal and rep.degenerate == 0

    def test_flatness_matches_the_drawn_route(self, swapped):
        rng = np.random.default_rng([0, 5])
        B = rng.standard_normal((6, 6))
        x = rng.standard_normal(6)
        drawn = phi_flat_check(quadratic_field(B + B.T), x,
                               catalogue("special_lagrangian", 3), seed=1729)
        # f o P at P x, P swapping x1 and y1 (P = P^T = P^-1)
        rep = phi_flat_check(quadratic_field(self.P @ (B + B.T) @ self.P),
                             self.P @ x, swapped, seed=1729)
        assert not rep.vacuous and rep.exact and drawn.exact
        # the tangential route read 4.1197731776, 1.4e-9 short of this
        assert abs(drawn.worst_value - 4.119773179) < 1e-9
        assert abs(rep.worst_value - drawn.worst_value) < 1e-9


class TestSymbolAndReduction:
    def test_symbol_examples(self, omega, lam):
        e1 = np.zeros(4)
        e1[0] = 1.0
        assert symbol(e1, omega).coeffs == {(1, 2): 1.0}
        e3 = np.zeros(4)
        e3[2] = 1.0
        assert symbol(e3, lam).coeffs == {(3, 4): 0.5}

    @pytest.mark.parametrize("name,params", CATALOGUE_SPECS,
                             ids=[f"{n}{p}" for n, p in CATALOGUE_SPECS])
    def test_symbol_is_rank_one_derivation(self, name, params):
        # u ^ (u -| phi) is the derivation of u u^T, in top degree too,
        # where it is |u|^2 vol
        cal = catalogue(name, *params)
        rng = np.random.default_rng([5, cal.n, cal.p])
        for _ in range(5):
            u = rng.standard_normal(cal.n)
            want = derivation_extend(np.outer(u, u), cal.form)
            assert symbol(u, cal).allclose(want, tol=1e-12)
            if cal.p == cal.n:
                assert abs(symbol(u, cal).vec[0] - u @ u) <= 1e-12

    @staticmethod
    def projected_hessian(f, cal, ss):
        """The form-valued Hessian at 0 projected onto the sampled span."""
        basis = span_split(ss.pvectors())[0]
        return basis.T @ (basis @ hessian_form(
            f, np.zeros(cal.n), cal).to_coeff_vector())

    def test_projected_hessian_pluriharmonic(self, omega, ss_omega):
        ph = self.projected_hessian(builtin_field("re_z1_sq", 4), omega,
                                    ss_omega)
        assert np.linalg.norm(ph) < 1e-9

    def test_projected_hessian_keeps_phi(self, omega, ss_omega):
        ph = self.projected_hessian(builtin_field("half_normsq", 4), omega,
                                    ss_omega)
        assert np.abs(ph - 2.0 * omega.form.to_coeff_vector()).max() <= 1e-9

    def test_projected_hessian_lambda_blind(self, lam, ss_lam):
        ph = self.projected_hessian(builtin_field("neg_x3_sq", 4), lam,
                                    ss_lam)
        assert np.linalg.norm(ph) < 1e-9

    def test_ellipticity_coherence(self, omega, lam, ss_omega, ss_lam):
        # reduce.elliptic  <=>  min over unit u of max over samples of
        # the symbol pairing stays positive
        def minmax(cal, ss):
            rng = np.random.default_rng(3)
            best = np.inf
            P = [pl.frame.T @ pl.frame for pl in ss.planes]
            for _ in range(2000):
                u = rng.standard_normal(cal.n)
                u /= np.linalg.norm(u)
                best = min(best, max(u @ Pk @ u for Pk in P))
            return best

        assert reduce_calibration(omega, ss_omega).elliptic
        assert minmax(omega, ss_omega) > 1e-3
        assert not reduce_calibration(lam, ss_lam).elliptic
        # on the witness direction the symbol vanishes entirely
        red = reduce_calibration(lam, ss_lam)
        worst = max(pairing(symbol(red.witness, lam), pl.pvector())
                    for pl in ss_lam.planes)
        assert worst < 1e-9
