import itertools

import numpy as np
import pytest

from calibr.calibrations import catalogue
from calibr.cli import main
from calibr.duality import (active_site_hull_check, assemble_boundary_model,
                            assemble_jensen_model, atom_boundary_values,
                            boundary_alternative, build_boundary_model,
                            build_jensen_model, form_test_family,
                            jensen_alternative, scalar_test_family)
from calibr.exterior import (ExteriorElement, SimplePlane, derivation_extend,
                             derivation_tensor, pairing, wedge)
from calibr.grassmann import rng_stream, sample_grassmannian
from calibr.lp import solve_lp
from calibr.polynomial import Polynomial, integrate_over_box, monomial_exponents
from scipy.optimize import linprog


@pytest.fixture(scope="module")
def omega():
    return catalogue("kaehler", 2, 1)


@pytest.fixture(scope="module")
def lam():
    return catalogue("lambda_example", 0.5)


@pytest.fixture(scope="module")
def ss(omega):
    return sample_grassmannian(omega, tol=1e-8, count=8, seed=5)


@pytest.fixture(scope="module")
def ss_lam(lam):
    return sample_grassmannian(lam, tol=1e-8, count=4, seed=5)


class TestFamilies:
    def test_scalar_family_orthonormal(self):
        lo, hi = np.array([-1.0] * 2), np.array([1.0] * 2)
        fam = scalar_test_family(2, 2, lo, hi)
        assert len(fam) == 5            # nonconstant monomials up to deg 2
        for i, p in enumerate(fam):
            for j, q in enumerate(fam):
                ip = integrate_over_box(p * q, lo, hi)
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-10

    def test_form_family_size(self):
        lo, hi = np.array([-1.0] * 4), np.array([1.0] * 4)
        fam = form_test_family(4, 2, 1, lo, hi)
        assert len(fam) == 4 * 5        # C(4,1) x monomials deg <= 1

    def test_rank_check_fires(self, omega, ss):
        from calibr.duality import FiniteDualityModel, _check_family_rank
        from calibr.polynomial import Polynomial
        fam = [Polynomial.coordinate(4, 1), Polynomial.coordinate(4, 1)]
        model = FiniteDualityModel(omega, np.zeros((1, 4)),
                                   [list(ss.planes[:2])], fam, "jensen", 1)
        with pytest.raises(ValueError, match="rank"):
            _check_family_rank(model)


class TestBoundaryAlternative:
    def test_zero_boundary_feasible(self, omega, ss):
        model = build_boundary_model(omega, np.zeros((2, 4)), ss, degree=1,
                                     planes_per_site=3)
        res = boundary_alternative(model, np.zeros(len(model.test_family)))
        assert res.primal == 'Feasible' and res.dual is None
        assert res.consistent

    def test_atom_boundary_feasible(self, omega, ss):
        rng = rng_stream(1, 0)
        sites = rng.uniform(-1, 1, size=(4, 4))
        model = build_boundary_model(omega, sites, ss, degree=2,
                                     planes_per_site=4)
        S = atom_boundary_values(model, 0, model.dictionary[0][0])
        res = boundary_alternative(model, S)
        assert res.primal == 'Feasible'
        assert res.consistent
        A, s = assemble_boundary_model(model, S)
        assert np.abs(A @ res.weights - s).max() < 1e-7

    def test_negated_atom_infeasible_lambda(self, lam, ss_lam):
        rng = rng_stream(1, 1)
        sites = rng.uniform(-1, 1, size=(4, 4))
        model = build_boundary_model(lam, sites, ss_lam, degree=2,
                                     planes_per_site=1)
        S = atom_boundary_values(model, 0, model.dictionary[0][0])
        res = boundary_alternative(model, -S)
        assert res.primal == 'Infeasible'
        assert res.dual == 'Certificate'
        assert res.margin > 1e-6
        assert res.consistent
        # certificate verifies: A^T a >= 0 and s.a < 0
        A, s = assemble_boundary_model(model, -S)
        assert (A.T @ res.certificate).min() > -1e-8
        assert s @ res.certificate < 0

    def test_mass_bound_threshold(self, omega, ss):
        rng = rng_stream(1, 2)
        sites = rng.uniform(-1, 1, size=(3, 4))
        model = build_boundary_model(omega, sites, ss, degree=1,
                                     planes_per_site=3)
        S = atom_boundary_values(model, 1, model.dictionary[1][2])
        base = boundary_alternative(model, S, lam=1e9)
        lam_star = base.meta["lambda_threshold"]
        assert abs(lam_star - 1.0) < 1e-7    # a unit atom costs mass one
        below = boundary_alternative(model, S, lam=0.5)
        above = boundary_alternative(model, S, lam=1.5)
        assert below.primal == 'Infeasible' and below.dual == 'Certificate'
        assert above.primal == 'Feasible'
        assert below.consistent and above.consistent

    def test_monotone_in_family_degree(self, omega, ss):
        # more constraints can only shrink the feasible set
        rng = rng_stream(1, 3)
        sites = rng.uniform(-1, 1, size=(3, 4))
        flips = None
        feasible = {}
        for deg in (1, 2, 3):
            model = build_boundary_model(omega, sites, ss, degree=deg,
                                         planes_per_site=3)
            A, _ = assemble_boundary_model(
                model, np.zeros(len(model.test_family)))
            rng2 = rng_stream(2, 7)
            c = np.abs(rng2.standard_normal(A.shape[1]))
            S = A @ c                   # always feasible by construction
            res = boundary_alternative(model, S)
            feasible[deg] = res.primal == 'Feasible'
        assert all(feasible.values())

    def test_random_instances_consistent(self, omega, ss):
        ties = consistent = 0
        N = 40
        for inst in range(N):
            rng = rng_stream(3, inst)
            sites = rng.uniform(-1, 1, size=(4, 4))
            model = build_boundary_model(omega, sites, ss, degree=1,
                                         planes_per_site=3)
            A, _ = assemble_boundary_model(
                model, np.zeros(len(model.test_family)))
            S = A @ np.abs(rng.standard_normal(A.shape[1]))
            if inst % 2 == 1:
                S = S * rng.choice([-1.0, 1.0], size=len(S))
            res = boundary_alternative(model, S)
            if res.boundary_tie:
                ties += 1
            elif res.consistent:
                consistent += 1
        assert consistent == N - ties


class TestJensenAlternative:
    def test_square_centroid_feasible(self, omega, ss):
        e12 = SimplePlane(np.eye(4)[:2])
        sq = np.array([[1, 1, 0, 0], [-1, 1, 0, 0], [-1, -1, 0, 0],
                       [1, -1, 0, 0], [0.0, 0, 0, 0]])
        model = build_jensen_model(omega, sq, ss, degree=2,
                                   planes_per_site=6, extra_planes=[e12])
        res = jensen_alternative(model, [0, 1, 2, 3], 4)
        assert res.primal == 'Feasible'
        assert res.consistent
        A, b = assemble_jensen_model(model, [0, 1, 2, 3], 4)
        assert np.abs(A @ res.weights - b).max() < 1e-7
        chk = active_site_hull_check(model, [0, 1, 2, 3], 4, res)
        assert chk["applicable"] and chk["ok"]

    def test_far_point_linear_separation(self, omega, ss):
        pts = np.array([[1, 1, 0, 0], [-1, 1, 0, 0], [-1, -1, 0, 0],
                        [1, -1, 0, 0], [5.0, 0, 0, 0]])
        model = build_jensen_model(omega, pts, ss, degree=2,
                                   planes_per_site=4)
        res = jensen_alternative(model, [0, 1, 2, 3], 4)
        assert res.dual == 'Certificate'
        assert res.margin > 0.1          # comfortably above the margin floor
        assert res.consistent

    def test_singleton_K(self, omega, ss):
        pts = np.array([[0.0, 0, 0, 0], [1.0, 1, 1, 1]])
        model = build_jensen_model(omega, pts, ss, degree=1,
                                   planes_per_site=4)
        res = jensen_alternative(model, [0], 1)
        assert res.dual == 'Certificate'
        assert res.consistent

    def test_empty_K_rejected(self, omega, ss):
        pts = np.array([[0.0, 0, 0, 0], [1.0, 1, 1, 1]])
        model = build_jensen_model(omega, pts, ss, degree=1,
                                   planes_per_site=2)
        with pytest.raises(ValueError, match="nonempty"):
            jensen_alternative(model, [], 1)

    def test_x_in_K_rejected(self, omega, ss):
        pts = np.array([[0.0, 0, 0, 0], [1.0, 1, 1, 1]])
        model = build_jensen_model(omega, pts, ss, degree=1,
                                   planes_per_site=2)
        with pytest.raises(ValueError, match="K site"):
            jensen_alternative(model, [0, 1], 1)

    @pytest.mark.parametrize("K, x", [([0, 2], 1), ([0, -1], 1), ([0], 2)])
    def test_site_index_out_of_range_rejected(self, omega, ss, K, x):
        pts = np.array([[0.0, 0, 0, 0], [1.0, 1, 1, 1]])
        model = build_jensen_model(omega, pts, ss, degree=1,
                                   planes_per_site=2)
        with pytest.raises(ValueError, match="index the 2 sites"):
            assemble_jensen_model(model, K, x)

    def test_random_instances_consistent(self, omega, ss):
        ties = consistent = 0
        N = 30
        for inst in range(N):
            rng = rng_stream(4, inst)
            pts = rng.uniform(-1, 1, size=(5, 4))
            model = build_jensen_model(omega, pts, ss, degree=2,
                                       planes_per_site=4)
            res = jensen_alternative(model, [0, 1, 2, 3], 4)
            if res.boundary_tie:
                ties += 1
            elif res.consistent:
                consistent += 1
        assert consistent == N - ties

    def test_family_monotone_shrinks_primal(self, omega, ss):
        # enlarging the family adds equations: a degree-d feasible instance
        # can only stay feasible or flip to infeasible at degree d+1
        flips_wrong_way = 0
        for inst in range(10):
            rng = rng_stream(5, inst)
            pts = rng.uniform(-1, 1, size=(5, 4))
            feas = {}
            for deg in (1, 2, 3):
                model = build_jensen_model(omega, pts, ss, degree=deg,
                                           planes_per_site=4)
                res = jensen_alternative(model, [0, 1, 2, 3], 4)
                feas[deg] = res.primal == 'Feasible'
            if (not feas[1] and feas[2]) or (not feas[2] and feas[3]):
                flips_wrong_way += 1
        assert flips_wrong_way == 0


# -- the in-repo simplex against HiGHS on the criterion-8 generators ---------

CRITERION_8_SEED = 1729


def wedge_pvector(plane):
    """The plane's p-vector as the wedge of its frame rows."""
    xi = ExteriorElement(plane.n, 0, {(): 1.0})
    for row in plane.frame:
        xi = wedge(xi, ExteriorElement.from_vector(row))
    return xi


def boundary_matrix(model):
    """(d beta_k)(x_i)(xi) for every test form and atom, term by term."""
    return np.array([[pairing(beta.d().at(model.sites[i]), wedge_pvector(pl))
                      for i, pl in model.atoms]
                     for beta in model.test_family])


def loop_jensen_model(model, K_indices, x_index):
    """The former per-member Jensen assembly: hessian_at and __call__ at
    every site, paired with each atom's G in the same einsum."""
    site_of, X = model._atom_table
    m, cal = len(site_of), model.calibration
    A = np.zeros((len(model.test_family) + 1, m + len(K_indices)))
    b = np.zeros(len(A))
    Dphi = derivation_tensor(cal.n, cal.p) @ cal.form.to_coeff_vector()
    G = np.array([Dphi @ xi for xi in X]).reshape(-1, cal.n, cal.n)
    for k, f in enumerate(model.test_family):
        H = np.array([f.hessian_at(site) for site in model.sites])
        A[k, :m] = np.einsum("alm,alm->a", H[site_of], G)
        A[k, m:] = [-f(model.sites[j]) for j in K_indices]
        b[k] = -f(model.sites[x_index])
    A[-1, m:] = b[-1] = 1.0
    return A, b


def highs_feasible(A, b, A_ub=None, b_ub=None):
    res = linprog(np.zeros(A.shape[1]), A_ub=A_ub, b_ub=b_ub, A_eq=A,
                  b_eq=b, bounds=(0, None), method="highs")
    assert res.status in (0, 2)         # solved or infeasible
    return res.status == 0


def simplex_feasible(A, b):
    return solve_lp(np.zeros(A.shape[1]), A, b).status == 'optimal'


def check_weights(A, b, w):
    assert w.min() >= -1e-9
    assert np.abs(A @ w - b).max() <= 1e-7 * max(1.0, np.abs(b).max())


class TestSolverDifferential:
    @pytest.fixture(scope="class")
    def ss8(self, omega):
        return sample_grassmannian(omega, tol=1e-8, count=8,
                                   seed=CRITERION_8_SEED)

    def test_plain_boundary(self, omega, ss8):
        for inst in range(10):
            rng = rng_stream(CRITERION_8_SEED, 8000 + inst)
            sites = rng.uniform(-1, 1, size=(4, 4))
            model = build_boundary_model(omega, sites, ss8, degree=1,
                                         planes_per_site=3)
            A = boundary_matrix(model)
            assembled, _ = assemble_boundary_model(
                model, np.zeros(len(model.test_family)))
            assert np.abs(assembled - A).max() < 1e-12
            S = A @ np.abs(rng.standard_normal(A.shape[1]))
            if inst % 2 == 1:
                S = S * rng.choice([-1.0, 1.0], size=len(S))
            feasible = highs_feasible(A, S)
            assert simplex_feasible(A, S) == feasible
            res = boundary_alternative(model, S)
            assert (res.primal == 'Feasible') == feasible
            if res.weights is not None:
                check_weights(A, S, res.weights)
            if res.certificate is not None:
                assert (A.T @ res.certificate).min() >= -1e-8
                assert S @ res.certificate < 0.0

    def test_lambda_boundary(self, omega, ss8):
        for inst in range(10):
            rng = rng_stream(CRITERION_8_SEED, 10_000 + inst)
            sites = rng.uniform(-1, 1, size=(3, 4))
            model = build_boundary_model(omega, sites, ss8, degree=1,
                                         planes_per_site=3)
            A = boundary_matrix(model)
            m = A.shape[1]
            S = A @ np.abs(rng.standard_normal(m))
            phi = np.array([pairing(omega.form, wedge_pvector(pl))
                            for _, pl in model.atoms])
            lam_star = linprog(np.ones(m), A_eq=A, b_eq=S, bounds=(0, None),
                               method="highs").fun
            for lam in (0.5 * lam_star, 2.0 * lam_star):
                feasible = highs_feasible(A, S, np.ones((1, m)), [lam])
                # the mass bound as an equation with one slack column
                bounded = np.block([[A, np.zeros((len(S), 1))],
                                    [np.ones((1, m + 1))]])
                assert simplex_feasible(bounded, np.append(S, lam)) == feasible
                res = boundary_alternative(model, S, lam=lam)
                assert (res.primal == 'Feasible') == feasible
                if res.weights is not None:
                    check_weights(A, S, res.weights)
                    assert res.weights.sum() <= lam + 1e-7
                if res.certificate is not None:
                    assert (A.T @ res.certificate + phi).min() >= -1e-8
                    assert S @ res.certificate < -lam

    def test_jensen(self, omega, ss8):
        K, x = [0, 1, 2, 3], 4
        for inst, degree in itertools.product(range(10), (2, 3)):
            rng = rng_stream(CRITERION_8_SEED, 9000 + inst)
            pts = rng.uniform(-1, 1, size=(5, 4))
            model = build_jensen_model(omega, pts, ss8, degree=degree,
                                       planes_per_site=4)
            fam = model.test_family
            Hmat = np.array([[pairing(derivation_extend(f.hessian_at(pts[i]),
                                                        omega.form),
                                      wedge_pvector(pl)) for f in fam]
                             for i, pl in model.atoms])
            fx = np.array([f(pts[x]) for f in fam])
            fK = np.array([[f(pts[j]) for f in fam] for j in K])
            A, b = assemble_jensen_model(model, K, x)
            n_atoms = len(model.atoms)
            scale = max(1.0, np.abs(Hmat).max())
            assert np.abs(A[:-1, :n_atoms] - Hmat.T).max() < 1e-12 * scale
            assert np.array_equal(A[:-1, n_atoms:], -fK.T)
            assert np.array_equal(b[:-1], -fx)
            feasible = highs_feasible(A, b)
            assert simplex_feasible(A, b) == feasible
            res = jensen_alternative(model, K, x)
            assert (res.primal == 'Feasible') == feasible
            if res.weights is not None:
                check_weights(A, b, res.weights)
            if res.dual == 'Certificate':
                a = res.certificate
                assert (Hmat @ a).min() >= -1e-8
                assert fx @ a > (fK @ a).max()

    def test_jensen_feasible(self, omega, ss8):
        # no criterion-8 Jensen stream is feasible; with the x1y1 complex
        # line in the dictionary the centre of this diamond is
        K, x = [0, 1, 2, 3], 4
        pts = 0.5 * np.array([[1, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0],
                              [0, -1, 0, 0], [0.0, 0, 0, 0]])
        model = build_jensen_model(omega, pts, ss8, degree=2,
                                   planes_per_site=4,
                                   extra_planes=[SimplePlane(np.eye(4)[:2])])
        fam = model.test_family
        Hmat = np.array([[pairing(derivation_extend(f.hessian_at(pts[i]),
                                                    omega.form),
                                  wedge_pvector(pl)) for f in fam]
                         for i, pl in model.atoms])
        fx = np.array([f(pts[x]) for f in fam])
        fK = np.array([[f(pts[j]) for f in fam] for j in K])
        independent = np.block([[Hmat.T, -fK.T],
                                [np.zeros((1, len(Hmat))), np.ones((1, 4))]])
        rhs = np.append(-fx, 1.0)
        A, b = assemble_jensen_model(model, K, x)
        scale = max(1.0, np.abs(A).max())
        assert np.abs(A - independent).max() < 1e-12 * scale
        highs = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=b,
                        bounds=(0, None), method="highs")
        assert highs.status == 0
        check_weights(independent, rhs, highs.x)
        assert simplex_feasible(A, b)
        res = jensen_alternative(model, K, x)
        assert res.primal == 'Feasible' and res.dual is None
        assert res.consistent
        check_weights(independent, rhs, res.weights)


class TestAtomTable:
    def test_atom_values_are_matrix_columns(self, omega, ss):
        rng = rng_stream(6, 0)
        model = build_boundary_model(omega, rng.uniform(-1, 1, size=(3, 4)),
                                     ss, degree=2, planes_per_site=4)
        A, _ = assemble_boundary_model(model,
                                       np.zeros(len(model.test_family)))
        for col, (i, pl) in enumerate(model.atoms):
            assert np.array_equal(atom_boundary_values(model, i, pl),
                                  A[:, col])

    def test_uneven_dictionary(self, omega, ss):
        # every criterion-8 model lists the same planes at each site, so
        # these uneven lists are what exercise the atom table's site index
        planes = list(ss.planes)
        dictionary = [planes[:1], planes[1:4], [],
                      planes[::2] + [SimplePlane(np.eye(4)[:2])]]
        sites = rng_stream(6, 1).uniform(-1, 1, size=(4, 4))
        model = build_boundary_model(omega, sites, ss, degree=2,
                                     dictionary=dictionary)
        A, _ = assemble_boundary_model(model,
                                       np.zeros(len(model.test_family)))
        assert A.shape[1] == sum(len(pl) for pl in dictionary)
        assert np.abs(A - boundary_matrix(model)).max() < 1e-12


    def test_boundary_matrix_is_assembled_once(self, omega, ss):
        rng = rng_stream(6, 2)
        model = build_boundary_model(omega, rng.uniform(-1, 1, size=(3, 4)),
                                     ss, degree=1, planes_per_site=3)
        K = len(model.test_family)
        A, _ = assemble_boundary_model(model, np.zeros(K))
        B, s = assemble_boundary_model(model, np.ones(K))
        assert B is A and s.tolist() == [1.0] * K
        assert np.array_equal(A, boundary_matrix(model))
        with pytest.raises(ValueError, match="read-only"):
            A[0, 0] = 1.0


class TestJensenTable:
    def test_table_is_read_only(self, omega, ss):
        pts = rng_stream(6, 3).uniform(-1, 1, size=(5, 4))
        model = build_jensen_model(omega, pts, ss, degree=2,
                                   planes_per_site=3)
        vals, rows = model._jensen_table
        assert model._jensen_table[0] is vals
        assert vals.shape == (len(model.test_family), 5)
        assert rows.shape == (len(model.test_family), len(model.atoms))
        for table in (vals, rows):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0
        A, b = assemble_jensen_model(model, [0, 1], 2)
        A0, b0 = A.copy(), b.copy()
        A[:], b[:] = 7.0, 7.0             # the assembled copy is the caller's
        A, b = assemble_jensen_model(model, [0, 1], 2)
        assert np.array_equal(A, A0) and np.array_equal(b, b0)

    def test_repeated_assembly_matches_fresh_models(self, omega, ss):
        pts = rng_stream(6, 4).uniform(-1, 1, size=(6, 4))
        dictionary = [list(ss.planes[:k + 1]) for k in range(6)]
        model = build_jensen_model(omega, pts, ss, degree=3,
                                   dictionary=dictionary)
        for K, x in (([0, 1, 2, 3], 4), ([5], 0), ([4, 2, 1], 3),
                     ([0, 1, 2, 3], 5), ([3, 3], 1)):
            fresh = build_jensen_model(omega, pts, ss, degree=3,
                                       dictionary=dictionary)
            A, b = assemble_jensen_model(model, K, x)
            A0, b0 = assemble_jensen_model(fresh, K, x)
            A1, b1 = loop_jensen_model(fresh, K, x)
            assert np.array_equal(A, A0) and np.array_equal(b, b0)
            assert np.array_equal(A, A1) and np.array_equal(b, b1)

    @pytest.mark.parametrize("build", [build_boundary_model,
                                       build_jensen_model])
    @pytest.mark.parametrize("width", [3, 5])
    def test_sites_of_the_wrong_dimension_rejected(self, omega, ss, build,
                                                   width):
        sites = rng_stream(6, 5).uniform(-1, 1, size=(5, width))
        with pytest.raises(ValueError, match=r"\(k, 4\) array"):
            build(omega, sites, ss, degree=1, planes_per_site=2)


class TestReportedTolerances:
    def test_both_alternatives_echo_their_tolerances(self, omega, ss):
        from calibr.duality import FEAS_TOL, MARGIN_TOL
        sq = np.array([[1, 1, 0, 0], [-1, 1, 0, 0], [-1, -1, 0, 0],
                       [1, -1, 0, 0], [0.0, 0, 0, 0]])
        bmodel = build_boundary_model(omega, sq[:3], ss, degree=1,
                                      planes_per_site=3)
        S = atom_boundary_values(bmodel, 1, bmodel.dictionary[1][0])
        jmodel = build_jensen_model(omega, sq, ss, degree=2,
                                    planes_per_site=4)
        for margin_tol in (MARGIN_TOL, 1e-4):
            want = {"margin_tol": margin_tol, "feas_tol": FEAS_TOL}
            for res in (boundary_alternative(bmodel, S, margin_tol=margin_tol),
                        boundary_alternative(bmodel, S, lam=0.5,
                                             margin_tol=margin_tol),
                        jensen_alternative(jmodel, [0, 1, 2, 3], 4,
                                           margin_tol=margin_tol)):
                assert res.meta["tolerances"] == want
                assert res.meta["kind"] in ("boundary", "jensen")
        assert not hasattr(bmodel, "tolerances")


def gram_schmidt_family(polys, lo, hi):
    """Reference: modified Gram-Schmidt over Polynomial products, each inner
    product integrated exactly over the box."""
    out = []
    for p in polys:
        q = p
        for b in out:
            q = q - integrate_over_box(q * b, lo, hi) * b
        out.append((1.0 / np.sqrt(integrate_over_box(q * q, lo, hi))) * q)
    return out


class TestOrthonormalFamily:
    @pytest.mark.parametrize("lo, hi", [(-1.5, 1.5), (0.5, 1.5)])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("form", [False, True])
    def test_matches_gram_schmidt(self, lo, hi, degree, form):
        lo, hi = np.full(4, lo), np.full(4, hi)
        exps = monomial_exponents(4, degree, include_constant=form)
        ref = gram_schmidt_family([Polynomial.monomial(4, e) for e in exps],
                                  lo, hi)
        if form:
            fam = form_test_family(4, 2, degree, lo, hi)
            assert len(fam) == 4 * len(exps)
            assert [list(f.comps) for f in fam] == [
                [(i,)] for i in range(1, 5) for _ in exps]
            fam = [f.comps[(k // len(exps) + 1,)] for k, f in enumerate(fam)]
        else:
            fam = scalar_test_family(4, degree, lo, hi)
        X = rng_stream(10, degree).uniform(lo, hi, size=(20, 4))
        for k, f in enumerate(fam):
            g = ref[k % len(ref)]
            assert max(abs(f(x) - g(x)) for x in X) <= 1e-9
        fam = fam[:len(ref)]
        gram = np.array([[integrate_over_box(f * g, lo, hi) for g in fam]
                         for f in fam])
        assert np.abs(gram - np.eye(len(fam))).max() <= 1e-10

    @pytest.mark.parametrize("command, kw, match", [
        ("jensen", {"degree": 0}, "degree 0 has no member"),
        ("duality", {"degree": -1}, "degree -1 has no member"),
        ("jensen", {"sites": np.zeros((1, 4)), "pad": 0.0}, "hi > lo"),
        ("duality", {"sites": np.zeros((1, 4)), "pad": 0.0}, "hi > lo"),
    ], ids=["jensen-degree-0", "duality-degree-minus-1", "jensen-flat-box",
            "duality-flat-box"])
    def test_empty_or_flat_family_rejected(self, omega, ss, capsys, command,
                                           kw, match):
        build = {"jensen": build_jensen_model,
                 "duality": build_boundary_model}[command]
        kw = {"sites": rng_stream(6, 6).uniform(-1, 1, size=(5, 4)), **kw}
        with pytest.raises(ValueError, match=match):
            build(omega, kw.pop("sites"), ss, **kw)
        if "degree" in kw:
            code = main([command, "--cal", "omega4", "--random", "2",
                         "--deg", str(kw["degree"])])
            out, err = capsys.readouterr()
            assert code == 2 and out == ""
            assert err.startswith("error: ") and match in err
