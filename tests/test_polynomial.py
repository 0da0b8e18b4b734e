import numpy as np
import pytest

from calibr.polynomial import (
    PolyForm, Polynomial, integrate_over_box, integrate_over_simplex,
    legendre_tables, monomial_exponents, simplex_volume,
)

rng = np.random.default_rng(11)


class TestPolynomial:
    def test_eval_and_partial(self):
        # f = 3 x1^2 x2 - x2
        f = Polynomial(2, {(2, 1): 3.0, (0, 1): -1.0})
        assert f([2.0, 1.0]) == 11.0
        assert f.partial(1)([2.0, 1.0]) == 12.0
        assert f.partial(2)([2.0, 1.0]) == 11.0

    def test_gradient_hessian(self):
        f = Polynomial(3, {(2, 0, 0): 1.0, (0, 1, 1): 2.0})
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(f.gradient_at(x), [2.0, 6.0, 4.0])
        H = f.hessian_at(x)
        expected = np.array([[2.0, 0, 0], [0, 0, 2.0], [0, 2.0, 0]])
        assert np.allclose(H, expected)

    def test_product(self):
        f = Polynomial(2, {(1, 0): 1.0})
        g = Polynomial(2, {(0, 1): 1.0, (0, 0): 2.0})
        assert (f * g)([3.0, 4.0]) == 3.0 * 6.0

    def test_substitute_linear(self):
        f = Polynomial(2, {(2, 0): 1.0, (0, 1): 1.0})  # x1^2 + x2
        M = np.array([[1.0, 2.0], [0.0, 1.0]])         # x = t1*(1,2) + t2*(0,1)
        g = f.substitute_linear(M)
        for _ in range(5):
            t = rng.standard_normal(2)
            x = M.T @ t
            assert abs(g(t) - f(x)) < 1e-12

    @pytest.mark.parametrize("x", [[2.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0],
                                   [[1.0, 2.0, 3.0]], 5.0])
    def test_point_of_the_wrong_dimension_rejected(self, x):
        # zip used to truncate: this f([2.0]) returned 7.0
        f = Polynomial(3, {(1, 0, 0): 1.0, (0, 0, 2): 5.0})
        with pytest.raises(ValueError, match="3 coordinates"):
            f(x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        # NaN used to be dropped silently (read as x1^2) and an infinity kept
        with pytest.raises(ValueError, match=r"\(0, 2\) must be finite"):
            Polynomial(2, {(2, 0): 1.0, (0, 2): bad})

    @pytest.mark.parametrize("shape", [(2, 2), (1, 4), (3,), (1, 1, 3)])
    def test_point_stack_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="3 coordinates"):
            legendre_tables(np.ones(shape), np.zeros(3), np.ones(3), 2)


class TestSimplexIntegration:
    def test_volume(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert abs(simplex_volume(tri) - 0.5) < 1e-15
        tet = np.vstack([np.zeros(3), np.eye(3)])
        assert abs(simplex_volume(tet) - 1 / 6) < 1e-15

    def test_reference_triangle_linear(self):
        # frozen closed form: int_T (a + b x + c y) dA = a/2 + b/6 + c/6
        a, b, c = 0.7, -1.3, 2.1
        f = Polynomial(2, {(0, 0): a, (1, 0): b, (0, 1): c})
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        val = integrate_over_simplex(f, tri)
        assert abs(val - (a / 2 + b / 6 + c / 6)) < 1e-14

    def test_translation_invariance_of_constant(self):
        f = Polynomial(3, {(0, 0, 0): 2.5})
        tri = rng.standard_normal((3, 3))
        assert abs(integrate_over_simplex(f, tri)
                   - 2.5 * simplex_volume(tri)) < 1e-12

    def test_quadratic_against_subdivision(self):
        f = Polynomial(2, {(2, 0): 1.0, (1, 1): -2.0, (0, 2): 0.5})
        tri = np.array([[0.2, -0.1], [1.1, 0.3], [0.4, 0.9]])
        exact = integrate_over_simplex(f, tri)
        # midpoint-subdivision estimate
        total = 0.0
        m = 60
        v0, v1, v2 = tri
        for i in range(m):
            for j in range(m - i):
                for (di, dj, w) in [(1 / 3, 1 / 3, 1.0),
                                    (2 / 3, 2 / 3, 1.0 if i + j < m - 1 else 0.0)]:
                    lam1 = (i + di) / m
                    lam2 = (j + dj) / m
                    if w == 0.0:
                        continue
                    x = v0 + lam1 * (v1 - v0) + lam2 * (v2 - v0)
                    total += f(x)
        total *= simplex_volume(tri) / m ** 2
        assert abs(exact - total) < 1e-3 * max(1.0, abs(exact))

    def test_box_integral(self):
        f = Polynomial(2, {(2, 1): 6.0})
        # int_0^1 int_0^2 6 x^2 y dx dy over [0,1]x[0,2] = 6*(1/3)*(4/2) = 4
        assert abs(integrate_over_box(f, [0, 0], [1, 2]) - 4.0) < 1e-14


class TestPolyForm:
    def test_exterior_derivative(self):
        # beta = x2 dx1, dbeta = -dx1^dx2
        beta = PolyForm(3, 1, {(1,): Polynomial.coordinate(3, 2)})
        d = beta.d()
        assert set(d.comps) == {(1, 2)}
        assert d.comps[(1, 2)].terms == {(0, 0, 0): -1.0}

    def test_d_squared_zero(self):
        n = 4
        comps = {}
        for idx in [(1,), (2,), (3,)]:
            comps[idx] = Polynomial(n, {tuple(rng.integers(0, 3, n)): rng.standard_normal()
                                        for _ in range(3)})
        beta = PolyForm(n, 1, comps)
        dd = beta.d().d()
        assert all(not p.terms or max(abs(c) for c in p.terms.values()) < 1e-12
                   for p in dd.comps.values())

    def test_at_point(self):
        alpha = PolyForm(3, 2, {(1, 2): Polynomial.coordinate(3, 3)})
        frozen = alpha.at([0.0, 0.0, 5.0])
        assert frozen.coeffs == {(1, 2): 5.0}

    def test_monomial_exponents_count(self):
        # C(n+d, d) monomials up to degree d
        assert len(monomial_exponents(4, 2)) == 15
        assert len(monomial_exponents(4, 2, include_constant=False)) == 14
