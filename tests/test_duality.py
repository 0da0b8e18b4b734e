import itertools
import json

import numpy as np
import pytest

from calibr import acceptance, cli, duality
from calibr.calibrations import catalogue
from calibr.cli import main
from calibr.duality import (FiniteDualityModel, _family,
                            assemble_boundary_model,
                            assemble_jensen_model, atom_boundary_values,
                            boundary_alternative, build_boundary_model,
                            build_jensen_model, jensen_alternative)
from calibr.exterior import (ExteriorElement, SimplePlane, derivation_extend,
                             derivation_tensor, pairing, wedge)
from calibr.grassmann import rng_stream, sample_grassmannian
from calibr.lp import LPResult, solve_lp
from calibr.polynomial import (PolyForm, Polynomial, integrate_over_box,
                               legendre_tables, monomial_exponents)
from numpy.polynomial.legendre import leg2poly, leggauss
from scipy.optimize import linprog
from test_exterior import _sorted_sign


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


def family_model(cal, kind, degree, lo, hi):
    """A model with no atoms whose test family lives on the box [lo, hi]."""
    return FiniteDualityModel(cal, np.zeros((1, cal.n)), [[]],
                              _family(kind, cal.n, cal.p, degree), kind,
                              degree, (np.asarray(lo), np.asarray(hi)))


def quadrature_gram(model):
    """Gram matrix in L2 of the model's box of the family's scalar factors,
    from their own tables at the nodes of the tensor Gauss-Legendre rule
    exact up to twice the family degree per axis."""
    lo, hi = model.box
    t, w = leggauss(model.degree + 1)
    nodes = lo + np.outer(t + 1.0, hi - lo) / 2.0
    weights = np.outer(w, hi - lo) / 2.0
    X = np.array(list(itertools.product(*nodes.T)))
    W = np.prod(list(itertools.product(*weights.T)), axis=1)
    V = model._derivatives(X, np.zeros((1, len(lo)), dtype=int))[0]
    return (V * W) @ V.T


def table_entry(T, alpha, orders, q):
    """Derivative of per-axis orders of the member alpha at point q: the
    product, in axis order, of one entry per axis of the tables T."""
    v = 1.0
    for l, (k, o) in enumerate(zip(alpha, orders)):
        v = v * T[o, l, k, q]
    return v


def member_polynomial(alpha, lo, hi):
    """The member alpha rebuilt as a Polynomial: per axis the normalized
    Legendre series (leg2poly) in t with t = (2x - lo - hi)/(hi - lo)
    substituted, multiplied over the axes."""
    n = len(alpha)
    f = Polynomial.constant(n, 1.0)
    for l, k in enumerate(alpha):
        w = hi[l] - lo[l]
        coef = np.sqrt((2 * k + 1) / w) * leg2poly(np.eye(k + 1)[k])
        M = np.zeros((n, 1))
        M[l, 0] = 2.0 / w
        f = f * Polynomial(1, {(e,): c for e, c in enumerate(coef)}
                           ).substitute_linear(M, [-(lo[l] + hi[l]) / w])
    return f


class TestFamilies:
    def test_scalar_family_orthonormal(self):
        lo, hi = np.array([-1.0] * 2), np.array([1.0] * 2)
        model = family_model(catalogue("kaehler", 1, 1), "jensen", 2, lo, hi)
        assert len(model.test_family) == 5   # nonconstant members to deg 2
        gram = quadrature_gram(model)
        assert np.abs(gram - np.eye(5)).max() < 1e-10

    def test_form_family_size(self, omega, ss):
        model = build_boundary_model(omega, np.zeros((2, 4)), ss, degree=1,
                                     planes_per_site=3)
        assert len(model.test_family) == 4 * 5  # C(4,1) x degrees <= 1
        assert model.test_family[:6] == [
            ((0, 0, 0, 0), (1,)), ((1, 0, 0, 0), (1,)), ((0, 1, 0, 0), (1,)),
            ((0, 0, 1, 0), (1,)), ((0, 0, 0, 1), (1,)), ((0, 0, 0, 0), (2,))]

    @pytest.mark.parametrize("centre", [0.0, 3.0, 10.0])
    def test_gram_is_the_identity_off_centre(self, omega, centre):
        # monomials orthonormalized on [c-1, c+1]^4 missed the identity by
        # 1.9e-10 at c = 3 and 1.7e-7 at c = 10
        model = family_model(omega, "boundary", 3, np.full(4, centre - 1.0),
                             np.full(4, centre + 1.0))
        gram = quadrature_gram(model)
        assert gram.shape == (35, 35)
        assert np.abs(gram - np.eye(35)).max() <= 1e-12

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_tables_match_polynomial_reconstruction(self, omega, degree):
        lo, hi = np.array([-1.5, 0.2, -0.7, 1.0]), np.array([1.0, 2.2, 0.1,
                                                             1.9])
        model = family_model(omega, "boundary", degree, lo, hi)
        X = rng_stream(11, degree).uniform(lo, hi, size=(6, 4))
        E = np.eye(4, dtype=int)
        I, J = np.triu_indices(4)
        D = model._derivatives(X, np.vstack([0 * E[0], E, E[I] + E[J]]))
        for k, alpha in enumerate(model._alphas):
            f = member_polynomial(alpha, lo, hi)
            want = np.array([[f(x)] + list(f.gradient_at(x))
                             + list(f.hessian_at(x)[I, J]) for x in X]).T
            scale = max(1.0, np.abs(want).max())
            assert np.abs(D[:, k] - want).max() <= 1e-12 * scale

    def test_models_build_no_polynomial(self, omega, ss, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a Polynomial was built")

        sites = rng_stream(11, 9).uniform(-1, 1, size=(5, 4))
        monkeypatch.setattr(Polynomial, "__init__", refuse)
        boundary = build_boundary_model(omega, sites[:3], ss, degree=2,
                                        planes_per_site=3)
        jensen = build_jensen_model(omega, sites, ss, degree=3,
                                    planes_per_site=3)
        S = atom_boundary_values(boundary, 1, boundary.dictionary[1][0])
        for res in (boundary_alternative(boundary, S),
                    boundary_alternative(boundary, S, lam=2.0),
                    jensen_alternative(jensen, [0, 1, 2, 3], 4)):
            assert res.consistent


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

    def test_lp_status_reported(self, omega, ss, monkeypatch):
        sites = rng_stream(1, 4).uniform(-1, 1, size=(5, 4))
        bmodel = build_boundary_model(omega, sites[:3], ss, degree=1,
                                      planes_per_site=3)
        jmodel = build_jensen_model(omega, sites, ss, degree=2,
                                    planes_per_site=3)
        S = atom_boundary_values(bmodel, 0, bmodel.dictionary[0][0])
        res = boundary_alternative(bmodel, S)
        assert res.meta["lp_status"] == {"primal": "optimal",
                                         "separation": "optimal"}
        res = boundary_alternative(bmodel, S, lam=2.0)
        assert res.meta["lp_status"] == {"min_mass": "optimal"}
        # a capped LP decides neither side: reported, not a TypeError
        monkeypatch.setattr(duality, "solve_lp",
                            lambda *args, **kw: LPResult('maxiter'))
        for res, status in (
                (boundary_alternative(bmodel, S),
                 {"primal": "maxiter", "separation": "maxiter"}),
                (boundary_alternative(bmodel, S, lam=2.0),
                 {"min_mass": "maxiter"}),
                (jensen_alternative(jmodel, [0, 1, 2, 3], 4),
                 {"primal": "maxiter", "separation": "maxiter"})):
            assert res.meta["lp_status"] == status
            assert res.primal == 'Infeasible' and res.dual is None
            assert not res.consistent and not res.boundary_tie


    def test_unverified_separation_is_no_certificate(self, lam, ss_lam,
                                                     monkeypatch):
        # a plain separation answer negative on an atom is not reported
        sites = rng_stream(1, 1).uniform(-1, 1, size=(4, 4))
        model = build_boundary_model(lam, sites, ss_lam, degree=2,
                                     planes_per_site=1)
        S = -atom_boundary_values(model, 0, model.dictionary[0][0])
        a = boundary_alternative(model, S).certificate
        A, _ = assemble_boundary_model(model, S)
        assert (A.T @ -a).min() < -1e-8
        monkeypatch.setattr(duality, "_separation",
                            lambda *args: (-a, True, 1.0, False, 'optimal'))
        res = boundary_alternative(model, S)
        assert res.dual is None and res.certificate is None
        assert res.margin is None
        assert res.primal == 'Infeasible' and not res.consistent

    def test_unverified_min_mass_dual_is_no_certificate(self, omega, ss,
                                                        monkeypatch):
        # an infeasible min-mass LP whose y breaks A^T a >= -phi (a = -y) on
        # an atom is not reported, though s.a < 0; phi <= 1 on every atom
        sites = rng_stream(1, 2).uniform(-1, 1, size=(3, 4))
        model = build_boundary_model(omega, sites, ss, degree=1,
                                     planes_per_site=3)
        S = atom_boundary_values(model, 1, model.dictionary[1][2])
        A, _ = assemble_boundary_model(model, S)
        y = 10.0 * S / (S @ S)
        assert (A.T @ y).max() > 1.0 + 1e-8 and S @ y > 1e-12
        monkeypatch.setattr(duality, "solve_lp",
                            lambda *args, **kw: LPResult('infeasible', y=y))
        res = boundary_alternative(model, S, lam=0.5)
        assert res.meta["lp_status"] == {"min_mass": "infeasible"}
        assert res.dual is None and res.certificate is None
        assert res.margin is None
        assert res.primal == 'Infeasible' and not res.consistent
        assert not res.boundary_tie


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

    def test_far_point_linear_separation(self, omega, ss):
        pts = np.array([[1, 1, 0, 0], [-1, 1, 0, 0], [-1, -1, 0, 0],
                        [1, -1, 0, 0], [5.0, 0, 0, 0]])
        model = build_jensen_model(omega, pts, ss, degree=2,
                                   planes_per_site=4)
        res = jensen_alternative(model, [0, 1, 2, 3], 4)
        assert res.dual == 'Certificate'
        assert res.margin > 0.1          # comfortably above the margin floor
        assert res.consistent
        A, b = assemble_jensen_model(model, [0, 1, 2, 3], 4)
        K, a = len(model.test_family), res.certificate
        assert a.shape == (K,)
        assert (A[:K, :-4].T @ a).min() >= -1e-8    # psh on the dictionary
        # f(x) = -b.a and f at the K sites = -A_K^T a
        assert -b[:K] @ a > (-A[:K, -4:].T @ a).max()

    def test_x_at_a_K_site_has_no_certificate(self, omega, ss):
        # x repeats site 0: the Dirac measure there solves the primal, and
        # the separation LP's optimum is a vector that separates nothing
        pts = np.array([[0.0, 0, 0, 0], [1.0, 1, 1, 1], [0.0, 0, 0, 0]])
        model = build_jensen_model(omega, pts, ss, degree=2,
                                   planes_per_site=4)
        res = jensen_alternative(model, [0, 1], 2)
        assert res.primal == 'Feasible' and res.consistent
        assert res.dual is None and res.certificate is None

    def test_unverified_separation_is_no_certificate(self, omega, ss,
                                                     monkeypatch):
        # a separation LP answer that fails the re-check is not reported
        pts = np.array([[1, 1, 0, 0], [-1, 1, 0, 0], [-1, -1, 0, 0],
                        [1, -1, 0, 0], [5.0, 0, 0, 0]])
        model = build_jensen_model(omega, pts, ss, degree=2,
                                   planes_per_site=4)
        a = jensen_alternative(model, [0, 1, 2, 3], 4).certificate
        monkeypatch.setattr(duality, "_separation",
                            lambda *args: (-a, True, 1.0, False, 'optimal'))
        res = jensen_alternative(model, [0, 1, 2, 3], 4)
        assert res.dual is None and res.certificate is None
        assert res.margin is None
        assert res.primal == 'Infeasible' and not res.consistent

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
    """(d beta_k)(x_i)(xi) for every test form and atom, term by term: each
    d(f dx_J) frozen as an ExteriorElement from a per-member loop over the
    model's Legendre tables."""
    n = model.calibration.n
    T = legendre_tables(model.sites, *model.box, model.degree)
    E = np.eye(n, dtype=int)

    def frozen(alpha, J, q):
        comps = {}
        for i in range(1, n + 1):
            idx, sign = _sorted_sign((i,) + J)
            if idx is not None:
                comps[idx] = sign * table_entry(T, alpha, E[i - 1], q)
        return ExteriorElement(n, len(J) + 1, comps)

    return np.array([[pairing(frozen(alpha, J, i), wedge_pvector(pl))
                      for i, pl in model.atoms]
                     for alpha, J in model.test_family])


def poly_boundary_matrix(model):
    """The same pairings from each member rebuilt as a PolyForm, with the
    symbolic d."""
    n, p = model.calibration.n, model.calibration.p
    return np.array([[pairing(PolyForm(n, p - 1, {J: member_polynomial(
        alpha, *model.box)}).d().at(model.sites[i]), wedge_pvector(pl))
                      for i, pl in model.atoms]
                     for alpha, J in model.test_family])


def table_jensen_refs(model, K_indices, x_index):
    """Per-member loops over the model's Legendre tables: each member's
    Hessian (sites, n, n) and its values at x and at the K sites."""
    n = model.calibration.n
    T = legendre_tables(model.sites, *model.box, model.degree)
    E = np.eye(n, dtype=int)
    H = [np.array([[[table_entry(T, alpha, E[l] + E[m], q)
                     for m in range(n)] for l in range(n)]
                   for q in range(len(model.sites))])
         for alpha in model.test_family]
    fx = np.array([table_entry(T, alpha, 0 * E[0], x_index)
                   for alpha in model.test_family])
    fK = np.array([[table_entry(T, alpha, 0 * E[0], j)
                    for alpha in model.test_family] for j in K_indices])
    return H, fx, fK


def poly_jensen_refs(model, K_indices, x_index):
    """The same from each member rebuilt as a Polynomial: hessian_at and
    __call__."""
    fam = [member_polynomial(alpha, *model.box) for alpha in model.test_family]
    H = [np.array([f.hessian_at(site) for site in model.sites]) for f in fam]
    fx = np.array([f(model.sites[x_index]) for f in fam])
    fK = np.array([[f(model.sites[j]) for f in fam] for j in K_indices])
    return H, fx, fK


def hessian_pairings(model, H):
    """(atoms, members) pairings of each member's Hessian, extended into
    phi at the atom's site, with the atom's p-vector."""
    return np.array([[pairing(derivation_extend(Hk[i], model.calibration.form),
                              wedge_pvector(pl)) for Hk in H]
                     for i, pl in model.atoms])


def loop_jensen_model(model, K_indices, x_index):
    """The per-member Jensen assembly: Hessians and values from a loop over
    the model's Legendre tables, paired with each atom's G in the same
    einsum."""
    site_of, X = model._atom_table
    m, cal = len(site_of), model.calibration
    A = np.zeros((len(model.test_family) + 1, m + len(K_indices)))
    b = np.zeros(len(A))
    Dphi = derivation_tensor(cal.n, cal.p) @ cal.form.to_coeff_vector()
    G = np.array([Dphi @ xi for xi in X]).reshape(-1, cal.n, cal.n)
    H, fx, fK = table_jensen_refs(model, K_indices, x_index)
    for k in range(len(model.test_family)):
        A[k, :m] = np.einsum("alm,alm->a", H[k][site_of], G)
        A[k, m:] = -fK[:, k]
        b[k] = -fx[k]
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
            scale = max(1.0, np.abs(A).max())
            assert np.abs(poly_boundary_matrix(model) - A).max() \
                < 1e-12 * scale
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
            H, fx, fK = table_jensen_refs(model, K, x)
            Hmat = hessian_pairings(model, H)
            A, b = assemble_jensen_model(model, K, x)
            n_atoms = len(model.atoms)
            scale = max(1.0, np.abs(Hmat).max())
            assert np.abs(A[:-1, :n_atoms] - Hmat.T).max() < 1e-12 * scale
            assert np.array_equal(A[:-1, n_atoms:], -fK.T)
            assert np.array_equal(b[:-1], -fx)
            H, px, pK = poly_jensen_refs(model, K, x)
            scale = max(1.0, np.abs(fK).max(), np.abs(fx).max())
            assert np.abs(hessian_pairings(model, H) - Hmat).max() \
                < 1e-12 * max(1.0, np.abs(Hmat).max())
            assert np.abs(px - fx).max() < 1e-12 * scale
            assert np.abs(pK - fK).max() < 1e-12 * scale
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
        H, fx, fK = table_jensen_refs(model, K, x)
        Hmat = hessian_pairings(model, H)
        H, px, pK = poly_jensen_refs(model, K, x)
        scale = max(1.0, np.abs(Hmat).max())
        assert np.abs(hessian_pairings(model, H) - Hmat).max() < 1e-12 * scale
        scale = max(1.0, np.abs(fK).max(), np.abs(fx).max())
        assert np.abs(px - fx).max() < 1e-12 * scale
        assert np.abs(pK - fK).max() < 1e-12 * scale
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


# -- the separation LP from its feasible origin ------------------------------

def cold_separation(M, c, lower, upper, n_cert, margin_tol):
    """Reference: `duality._separation` solved cold, in slack form
    [M, -I] (v, t) = 0 with every variable starting at its lower bound, as
    it was before it started at the origin."""
    m = M.shape[0]
    res = solve_lp(np.concatenate([c, np.zeros(m)]),
                   np.hstack([M, -np.eye(m)]), np.zeros(m),
                   lower=np.concatenate([lower, np.zeros(m)]),
                   upper=np.concatenate([upper, np.full(m, np.inf)]))
    if res.status != 'optimal':
        return None, False, None, False, res.status
    a = res.x[:n_cert]
    rel = -res.obj / max(np.linalg.norm(a), 1e-300)
    if rel > margin_tol:
        return a, True, rel, False, res.status
    return a, False, None, rel > 1e-9, res.status


def separation_solves(monkeypatch):
    """The list that collects the LPResult of every `solve_lp` call made
    inside `duality._separation` from now on."""
    solves, inside = [], []
    solve, separation = duality.solve_lp, duality._separation

    def spy_solve(*args, **kwargs):
        res = solve(*args, **kwargs)
        if inside:
            solves.append(res)
        return res

    def spy_separation(*args):
        inside.append(True)
        try:
            return separation(*args)
        finally:
            inside.pop()
    monkeypatch.setattr(duality, "solve_lp", spy_solve)
    monkeypatch.setattr(duality, "_separation", spy_separation)
    return solves


def circle_model(degree):
    """The model of `calibr jensen --cal omega4`: 16 equispaced sites on the
    unit circle of the z1-line, then x = (1.2, 0, 0, 0), outside their hull
    (the closed unit disc)."""
    args = cli.build_parser().parse_args(["jensen", "--cal", "omega4"])
    cal = cli._load_cal(args)
    t = np.arange(16) * np.pi / 8
    sites = np.vstack([np.column_stack([np.cos(t), np.sin(t),
                                        np.zeros((16, 2))]),
                       [1.2, 0.0, 0.0, 0.0]])
    return build_jensen_model(cal, sites, cli._samples_for(cal, args),
                              degree=degree)


class TestOriginSeparation:
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_circle_against_highs(self, monkeypatch, degree):
        # the separation LP's optimum value, not its vertex: the margin
        # -c.v/|a| depends on which optimal vertex the solve stops at
        model = circle_model(degree)
        K, x = list(range(16)), 16
        solves = separation_solves(monkeypatch)
        res = jensen_alternative(model, K, x)
        assert res.primal == 'Infeasible' and res.dual == 'Certificate'
        assert res.consistent and not res.boundary_tie
        sep, = solves
        assert sep.status == 'optimal' and sep.meta["phase1_iterations"] == 0
        A, b = assemble_jensen_model(model, K, x)
        assert not highs_feasible(A, b)
        # min f(x) - t over |a| <= 1 boxwise and |t| <= 1e6, with the
        # dictionary pairings of a nonnegative and t >= f on K
        F, n_atoms = len(model.test_family), len(model.atoms)
        M = np.block([[A[:F, :n_atoms].T, np.zeros((n_atoms, 1))],
                      [A[:F, n_atoms:].T, np.ones((len(K), 1))]])
        highs = linprog(np.append(b[:F], 1.0), A_ub=-M,
                        b_ub=np.zeros(len(M)),
                        bounds=[(-1.0, 1.0)] * F + [(-1e6, 1e6)],
                        method="highs")
        assert highs.status == 0
        assert abs(sep.obj - highs.fun) <= 1e-9 * abs(highs.fun)
        a = res.certificate
        assert res.margin == pytest.approx(-sep.obj / np.linalg.norm(a),
                                           rel=1e-12)

    def test_criterion_8_starts_in_phase_2(self, monkeypatch):
        # every separation LP of criterion 8 starts at its feasible origin
        # (a warm basis that solve_lp rejected would start it cold again,
        # silently), and every verdict is the cold reference's
        verdicts = []
        for name in ("boundary_alternative", "jensen_alternative"):
            def spy(*args, alternative=getattr(acceptance, name), **kwargs):
                res = alternative(*args, **kwargs)
                verdicts.append((res.primal, res.dual, res.consistent,
                                 res.boundary_tie))
                return res
            monkeypatch.setattr(acceptance, name, spy)
        solves = separation_solves(monkeypatch)
        assert acceptance.criterion_8_farkas(CRITERION_8_SEED).passed
        assert len(solves) == 200
        assert all(s.status == 'optimal' for s in solves)
        assert all(s.meta["phase1_iterations"] == 0 for s in solves)
        origin, verdicts[:] = list(verdicts), []
        monkeypatch.setattr(duality, "_separation", cold_separation)
        acceptance.criterion_8_farkas(CRITERION_8_SEED)
        assert len(origin) == 300 and verdicts == origin


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
        scale = max(1.0, np.abs(A).max())
        assert np.abs(A - poly_boundary_matrix(model)).max() < 1e-12 * scale


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
    def test_matches_gram_schmidt(self, omega, lo, hi, degree, form):
        # Gram-Schmidt of graded-lex monomials from the constant on gives the
        # Legendre products themselves; without the constant the two
        # families span the same space modulo constants
        lo, hi = np.full(4, lo), np.full(4, hi)
        exps = monomial_exponents(4, degree, include_constant=form)
        ref = gram_schmidt_family([Polynomial.monomial(4, e) for e in exps],
                                  lo, hi)
        model = family_model(omega, "boundary" if form else "jensen", degree,
                             lo, hi)
        if form:
            assert len(model.test_family) == 4 * len(exps)
            assert [J for _, J in model.test_family] == [
                (i,) for i in range(1, 5) for _ in exps]
        assert [tuple(a) for a in model._alphas] == exps
        X = rng_stream(10, degree).uniform(lo, hi,
                                           size=(2 * len(exps) + 20, 4))
        vals = model._derivatives(X, np.zeros((1, 4), dtype=int))[0]
        want = np.array([[g(x) for x in X] for g in ref])
        if form:
            assert np.abs(vals - want).max() <= 1e-9
        else:
            basis = np.column_stack([np.ones(len(X)), vals.T])
            coef = np.linalg.lstsq(basis, want.T, rcond=None)[0]
            assert np.abs(basis @ coef - want.T).max() <= 1e-9
        fam = [member_polynomial(a, lo, hi) for a in model._alphas]
        gram = np.array([[integrate_over_box(f * g, lo, hi) for g in fam]
                         for f in fam])
        assert np.abs(gram - np.eye(len(fam))).max() <= 1e-10

    @pytest.mark.parametrize("command, kw, match", [
        ("jensen", {"degree": 0}, "degree 0 has no member"),
        ("duality", {"degree": -1}, "degree -1 has no member"),
        # padded by 0.5 the box stays flat: 1e17 + 0.5 rounds to 1e17
        ("jensen", {"sites": np.full((2, 4), 1e17)}, "hi > lo"),
        ("duality", {"sites": [[0.0, np.nan, 0, 0], [1, 1, 1, 1]]},
         "sites must be finite"),
        ("jensen", {"sites": [[0.0, 0, 0, 0], [np.inf, 1, 1, 1]]},
         "sites must be finite"),
        # the first boundary value; a NaN one read Feasible and consistent
        ("duality", {"boundary": np.nan}, "boundary values must be finite"),
        ("duality", {"boundary": -np.inf}, "boundary values must be finite"),
    ], ids=["jensen-degree-0", "duality-degree-minus-1", "jensen-flat-box",
            "duality-nan-site", "jensen-infinite-site",
            "duality-nan-boundary", "duality-infinite-boundary"])
    def test_empty_or_flat_family_rejected(self, omega, ss, capsys, tmp_path,
                                           command, kw, match):
        build = {"jensen": build_jensen_model,
                 "duality": build_boundary_model}[command]
        kw = {"sites": rng_stream(6, 6).uniform(-1, 1, size=(5, 4)), **kw}
        sites, bad = kw.pop("sites"), kw.pop("boundary", None)
        values = [0.0]
        if bad is None:
            with pytest.raises(ValueError, match=match):
                build(omega, sites, ss, **kw)
        else:
            model = build(omega, sites, ss)
            values = [bad] + [0.0] * (len(model.test_family) - 1)
            with pytest.raises(ValueError, match=match):
                assemble_boundary_model(model, values)
        if "degree" in kw:
            argv = ["--random", "2", "--deg", str(kw["degree"])]
        else:
            # json writes NaN and Infinity, and the CLI reads them back
            path, S = tmp_path / "sites.json", tmp_path / "S.json"
            path.write_text(json.dumps(np.asarray(sites).tolist()))
            S.write_text(json.dumps(values))
            argv = ["--sites", str(path)] + (
                ["--K", "0", "--x", "1"] if command == "jensen"
                else ["--boundary", str(S)])
        code = main([command, "--cal", "omega4", *argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and match in err
