import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import calibr
from calibr.calibrations import CATALOGUE_SPECS, catalogue
from calibr.exterior import (
    ExteriorElement, SimplePlane, _lex_array, _sort_sign, _stack_dets,
    angular_distance, compound, contraction_matrix, derivation_extend,
    derivation_tensor, form_from_json, form_to_json, hodge_star,
    interior_product, is_simple, lex_indices, lex_position, pairing,
    simple_from_frame, wedge, wedge_matrix, wedge_table,
)
from calibr.exterior import DROP_TOL
from calibr.grassmann import FormEvaluator, _dense_tensor

rng = np.random.default_rng(7)


def _sorted_sign(seq):
    """Sort a sequence of ints, returning (tuple, permutation sign), or
    (None, 0) when it repeats an index: the insertion sort `_sort_sign`
    replaced, kept as the reference for it and for the dict loops below."""
    seq = list(seq)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(seq, seq[1:]):
        if a == b:
            return None, 0
    return tuple(seq), sign


def dx(n, *idx):
    return ExteriorElement.basis(n, idx)


def random_element(n, p, rng):
    from calibr.exterior import lex_indices
    basis = lex_indices(n, p)
    coeffs = {i: rng.standard_normal() for i in basis}
    return ExteriorElement(n, p, coeffs)


class TestWedge:
    def test_disjoint_indices(self):
        out = wedge(dx(4, 1, 2), dx(4, 3, 4))
        assert out.coeffs == {(1, 2, 3, 4): 1.0}

    def test_alternation(self):
        assert wedge(dx(4, 1), dx(4, 1)).is_zero()

    def test_omega_squared(self):
        omega = dx(4, 1, 2) + dx(4, 3, 4)
        out = wedge(omega, omega)
        assert out.allclose(2.0 * dx(4, 1, 2, 3, 4))

    def test_graded_anticommutativity(self):
        for pa, pb in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            a = random_element(5, pa, rng)
            b = random_element(5, pb, rng)
            lhs = wedge(a, b)
            rhs = (-1.0) ** (pa * pb) * wedge(b, a)
            assert lhs.allclose(rhs, tol=1e-12)

    def test_degree_overflow(self):
        with pytest.raises(ValueError):
            wedge(dx(4, 1, 2, 3), dx(4, 2, 3, 4))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wedge(dx(4, 1), dx(5, 2))


class TestInteriorProduct:
    def test_leading_index(self):
        out = interior_product([1, 0, 0, 0], dx(4, 1, 2))
        assert out.coeffs == {(2,): 1.0}

    def test_sign_from_position(self):
        out = interior_product([0, 1, 0, 0], dx(4, 1, 2))
        assert out.coeffs == {(1,): -1.0}

    def test_absent_index(self):
        assert interior_product([0, 0, 1, 0], dx(4, 1, 2)).is_zero()

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            interior_product([1.0], ExteriorElement(1, 0, {(): 1.0}))

    def test_antiderivation(self):
        # v -| (a^b) = (v-|a)^b + (-1)^deg(a) a^(v-|b)
        for _ in range(20):
            a = random_element(6, 2, rng)
            b = random_element(6, 3, rng)
            v = rng.standard_normal(6)
            lhs = interior_product(v, wedge(a, b))
            rhs = wedge(interior_product(v, a), b) + \
                wedge(a, interior_product(v, b))
            assert lhs.allclose(rhs, tol=1e-12)


class TestDerivationExtend:
    def test_identity_gives_degree(self):
        for p in (1, 2, 3):
            phi = random_element(5, p, rng)
            out = derivation_extend(np.eye(5), phi)
            assert out.allclose(float(p) * phi, tol=1e-12)

    def test_single_slot(self):
        A = np.diag([1.0, 0, 0, 0])
        out = derivation_extend(A, dx(4, 1, 2))
        assert out.allclose(dx(4, 1, 2))

    def test_trace_cancellation(self):
        omega = dx(4, 1, 2) + dx(4, 3, 4)
        A = np.diag([2.0, -2.0, 0, 0])
        out = derivation_extend(A, omega)
        assert abs(pairing(out, dx(4, 1, 2))) < 1e-14

    def test_trace_identity_on_phi_planes(self):
        # pairing(D_A phi, xi) = trace of A restricted to the plane, for
        # xi in G(phi); here phi = omega and xi a coordinate complex line
        omega = dx(4, 1, 2) + dx(4, 3, 4)
        frame = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        plane, xi = simple_from_frame(frame)
        for _ in range(50):
            A = rng.standard_normal((4, 4))
            A = (A + A.T) / 2
            lhs = pairing(derivation_extend(A, omega), xi)
            rhs = sum(f @ A @ f for f in plane.frame)
            assert abs(lhs - rhs) < 1e-12


class TestPairing:
    def test_matching(self):
        assert pairing(dx(4, 1, 2), dx(4, 1, 2)) == 1.0

    def test_orthogonal(self):
        assert pairing(dx(4, 1, 2), dx(4, 1, 3)) == 0.0

    def test_kaehler_angle(self):
        omega = dx(4, 1, 2) + dx(4, 3, 4)
        for theta in (0.0, 0.3, 1.2):
            v = np.array([0, np.cos(theta), np.sin(theta), 0.0])
            _, xi = simple_from_frame(np.array([[1.0, 0, 0, 0], v]))
            assert abs(pairing(omega, xi) - np.cos(theta)) < 1e-12

    def test_positive_definite(self):
        for _ in range(10):
            a = random_element(5, 2, rng)
            assert pairing(a, a) >= 0.0
            assert abs(pairing(a, a) - a.norm() ** 2) < 1e-12


class TestSimpleFromFrame:
    def test_coordinate_plane(self):
        _, xi = simple_from_frame(np.eye(4)[:2])
        assert xi.allclose(dx(4, 1, 2))

    def test_mixed_frame(self):
        frame = np.array([[1.0, 0, 0, 0], [0, 1.0, 1.0, 0]])
        _, xi = simple_from_frame(frame)
        s = 1 / np.sqrt(2)
        assert abs(xi.coeffs[(1, 2)] - s) < 1e-12
        assert abs(xi.coeffs[(1, 3)] - s) < 1e-12

    def test_inplane_rotation_invariance(self):
        base = np.eye(4)[:2]
        for theta in (0.4, 1.0, 2.5):
            c, s = np.cos(theta), np.sin(theta)
            rot = np.array([[c, s, 0, 0], [-s, c, 0, 0]])
            _, xi = simple_from_frame(rot)
            assert xi.allclose(dx(4, 1, 2), tol=1e-12)

    def test_rank_deficient(self):
        with pytest.raises(ValueError):
            simple_from_frame(np.array([[1.0, 0, 0, 0], [2.0, 0, 0, 0]]))

    def test_output_is_simple(self):
        for _ in range(10):
            frame = rng.standard_normal((3, 6))
            _, xi = simple_from_frame(frame)
            assert is_simple(xi)
            assert abs(xi.norm() - 1.0) < 1e-10


class TestIsSimple:
    def test_coordinate_plane(self):
        assert is_simple(dx(4, 1, 2))

    def test_nondecomposable(self):
        assert not is_simple(dx(4, 1, 2) + dx(4, 3, 4))

    def test_factorable(self):
        assert is_simple(dx(4, 1, 2) + dx(4, 1, 3))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_simple(ExteriorElement.zero(4, 2))


class TestHodgeStar:
    def test_basic(self):
        assert hodge_star(dx(4, 1, 2)).allclose(dx(4, 3, 4))

    def test_volume(self):
        one = ExteriorElement(3, 0, {(): 1.0})
        assert hodge_star(one).allclose(dx(3, 1, 2, 3))

    def test_double_dual_sign(self):
        for n, p in [(4, 2), (5, 2), (6, 3), (7, 3)]:
            a = random_element(n, p, rng)
            ss = hodge_star(hodge_star(a))
            assert ss.allclose((-1.0) ** (p * (n - p)) * a, tol=1e-12)

    def test_inner_product_identity(self):
        # a ^ *b = <a,b> vol
        for _ in range(10):
            a = random_element(5, 2, rng)
            b = random_element(5, 2, rng)
            prod = wedge(a, hodge_star(b))
            vol = prod.coeffs.get((1, 2, 3, 4, 5), 0.0)
            assert abs(vol - pairing(a, b)) < 1e-12


class TestAngularDistance:
    def test_same_plane(self):
        a = SimplePlane(np.eye(4)[:2])
        theta, oriented = angular_distance(a, a)
        assert theta < 1e-12 and oriented

    def test_reversed_orientation(self):
        a = SimplePlane(np.eye(4)[:2])
        b = SimplePlane(np.eye(4)[[1, 0]])
        theta, oriented = angular_distance(a, b)
        assert theta < 1e-12 and not oriented


class TestJson:
    def test_round_trip(self):
        a = random_element(5, 2, rng)
        assert form_from_json(form_to_json(a)).allclose(a)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            form_from_json({"n": 4, "p": 2,
                            "terms": [{"indices": [2, 1], "coeff": 1.0}]})
        with pytest.raises(ValueError):
            form_from_json({"n": 4, "p": 2,
                            "terms": [{"indices": [1, 5], "coeff": 1.0}]})
        with pytest.raises(ValueError):
            form_from_json({"n": 4, "p": 2, "bogus": 1, "terms": []})


class TestFromCoeffVector:
    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("drop_tol", [None, 0.0])
    def test_matches_init_route(self, n, drop_tol):
        # at the default tolerance the vector route equals the dict route;
        # at drop_tol=0.0 (the dict route has no tolerance) it keeps every
        # nonzero entry and turns -0.0 into 0.0
        tol = DROP_TOL if drop_tol is None else drop_tol
        kw = {} if drop_tol is None else {"drop_tol": drop_tol}
        edge = [tol, -tol, np.nextafter(tol, 1.0), -np.nextafter(tol, 1.0),
                0.0, -0.0]
        for p in range(n + 1):
            basis = lex_indices(n, p)
            vec = rng.standard_normal(len(basis))
            vec[rng.permutation(len(basis))[:len(edge)]] = edge[:len(basis)]
            fast = ExteriorElement.from_coeff_vector(n, p, vec, **kw)
            if drop_tol is None:
                slow = ExteriorElement(n, p, {basis[k]: vec[k]
                                              for k in range(len(basis))})
                want_vec, want = slow.vec, list(slow.coeffs.items())
            else:
                want_vec = np.where(vec != 0.0, vec, 0.0)
                want = [(basis[k], float(vec[k])) for k in np.flatnonzero(vec)]
            assert (fast.n, fast.p) == (n, p)
            assert same_bytes(fast.vec, want_vec)
            assert list(fast.coeffs.items()) == want
            assert all(type(c) is float for c in fast.coeffs.values())
            assert not fast.vec.flags.writeable

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError, match="size"):
            ExteriorElement.from_coeff_vector(4, 2, np.ones(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
class TestNonFiniteCoefficients:
    """NaN used to be dropped silently and an infinity kept; both
    constructors raise and name the first bad entry's index."""

    def test_init_rejects(self, bad):
        with pytest.raises(ValueError, match=r"\(3, 4\) must be finite"):
            ExteriorElement(4, 2, {(1, 2): 1.0, (3, 4): bad})

    @pytest.mark.parametrize("drop_tol", [DROP_TOL, 0.0])
    def test_from_coeff_vector_rejects(self, bad, drop_tol):
        # e23 sits at lex position 3
        vec = np.array([1.0, 0.0, 0.5, bad, bad, 0.0])
        with pytest.raises(ValueError, match=r"\(2, 3\) must be finite"):
            ExteriorElement.from_coeff_vector(4, 2, vec, drop_tol=drop_tol)


class TestOneVector:
    def test_vector_is_read_only_and_copied_out(self):
        vec = rng.standard_normal(10)
        a = ExteriorElement.from_coeff_vector(5, 2, vec)
        vec[0] = 7.0
        assert a.vec[0] != 7.0
        with pytest.raises(ValueError):
            a.vec[0] = 7.0
        out = a.to_coeff_vector()
        out[0] = 7.0
        assert a.vec[0] != 7.0

    def test_coeffs_in_lex_order_whatever_the_insertion_order(self):
        r = np.random.default_rng(11)
        basis = lex_indices(6, 3)
        vals = r.standard_normal(len(basis))
        lex = ExteriorElement(6, 3, dict(zip(basis, vals)))
        for _ in range(5):
            order = r.permutation(len(basis))
            mixed = ExteriorElement(6, 3, {basis[k]: vals[k] for k in order})
            assert mixed == lex
            assert list(mixed.coeffs) == list(basis)
            assert mixed.norm() == lex.norm()
            assert pairing(mixed, lex) == pairing(lex, lex)

    def test_duplicate_indices_sum(self):
        # distinct keys that name one index tuple
        a = ExteriorElement(4, 2, {(1, 2): 1.0, ("1", "2"): 0.5, (3, 4): 0.0})
        assert a.coeffs == {(1, 2): 1.5}


# -- slow-path references for the Lambda^p operator layer --------------------

def reference_derivation_extend(A, phi):
    """Slot-by-slot dict loop: each dx_i in each slot goes to sum_l A_il dx_l."""
    out = {}
    for idx, c in phi.coeffs.items():
        for pos, i in enumerate(idx):
            row = A[i - 1]
            for l in range(1, phi.n + 1):
                coef = row[l - 1]
                if coef == 0.0:
                    continue
                new = idx[:pos] + (l,) + idx[pos + 1:]
                sidx, sign = _sorted_sign(new)
                if sidx is None:
                    continue
                out[sidx] = out.get(sidx, 0.0) + c * coef * sign
    return ExteriorElement(phi.n, phi.p, out)


def reference_wedge(a, b):
    """Dict loop over every pair of terms, sorting each joined index."""
    out = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            idx, sign = _sorted_sign(ia + ib)
            if idx is None:
                continue
            out[idx] = out.get(idx, 0.0) + sign * ca * cb
    return ExteriorElement(a.n, a.p + b.p, out)


def reference_interior_product(v, a):
    """Dict loop removing each slot, signed by its position."""
    out = {}
    for idx, c in a.coeffs.items():
        for pos, i in enumerate(idx):
            vi = v[i - 1]
            if vi == 0.0:
                continue
            rest = idx[:pos] + idx[pos + 1:]
            out[rest] = out.get(rest, 0.0) + c * vi * (-1) ** pos
    return ExteriorElement(a.n, a.p - 1, out)


def reference_hodge_star(a):
    """Dict loop sending each index to its complement, signed by the
    inversions of the permutation (index, complement)."""
    full = set(range(1, a.n + 1))
    out = {}
    for idx, c in a.coeffs.items():
        comp = tuple(sorted(full - set(idx)))
        inv = sum(1 for i in idx for j in comp if i > j)
        out[comp] = out.get(comp, 0.0) + c * (-1) ** inv
    return ExteriorElement(a.n, a.n - a.p, out)


class TestCompound:
    @pytest.mark.parametrize("n,d", [(3, 2), (4, 4), (5, 3), (7, 6), (8, 7)])
    def test_entries_are_minors(self, n, d):
        Q = rng.standard_normal((n, d))
        for p in range(1, d + 1):
            C = compound(Q, p)
            expect = np.array([[np.linalg.det(Q[np.ix_(np.array(I) - 1,
                                                         np.array(J) - 1)])
                                for J in lex_indices(d, p)]
                               for I in lex_indices(n, p)])
            assert C.shape == expect.shape
            assert np.abs(C - expect).max() < 1e-12

    def test_degree_zero(self):
        assert compound(rng.standard_normal((4, 3)), 0).tolist() == [[1.0]]

    @pytest.mark.parametrize("n,m,d", [(4, 4, 4), (6, 5, 4), (8, 8, 7)])
    def test_cauchy_binet(self, n, m, d):
        A = rng.standard_normal((n, m)) / np.sqrt(m)
        B = rng.standard_normal((m, d)) / np.sqrt(d)
        for p in range(1, min(m, d) + 1):
            lhs = compound(A @ B, p)
            rhs = compound(A, p) @ compound(B, p)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_pvector_is_simple_column(self):
        F = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        xi = SimplePlane(F.T).pvector()
        # equal up to the DROP_TOL clean-up of the ExteriorElement
        assert np.abs(xi.to_coeff_vector() - compound(F, 3)[:, 0]).max() \
            <= 1e-14
        assert abs(xi.norm() - 1.0) < 1e-12 and is_simple(xi)


class TestDerivationTensor:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_dict_loop(self, n):
        for p in range(n + 1):
            phi = random_element(n, p, rng)
            A = rng.standard_normal((n, n))
            fast = derivation_extend(A, phi).to_coeff_vector()
            slow = reference_derivation_extend(A, phi).to_coeff_vector()
            assert np.abs(fast - slow).max() < 1e-12

    def test_slices_are_elementary_derivations(self):
        D = derivation_tensor(5, 2)
        assert D.shape == (5, 5, 10, 10) and not D.flags.writeable
        phi = random_element(5, 2, rng)
        for l in range(5):
            for m in range(5):
                E = np.zeros((5, 5))
                E[l, m] = 1.0
                expect = reference_derivation_extend(E, phi).to_coeff_vector()
                assert np.abs(D[l, m] @ phi.to_coeff_vector()
                              - expect).max() < 1e-12


# -- the index loops the wedge table replaced, kept as references -----------

def reference_contraction(phi_vec, n, p):
    """FormEvaluator's contraction loop: M[i, J] = sign phi[i u J]."""
    pm1 = lex_indices(n, p - 1)
    pos = lex_position(n, p)
    M = np.zeros((n, len(pm1)))
    for col, J in enumerate(pm1):
        setJ = set(J)
        for i in range(1, n + 1):
            if i in setJ:
                continue
            sign = (-1.0) ** sum(1 for j in J if j < i)
            key = tuple(sorted(J + (i,)))
            M[i - 1, col] = sign * phi_vec[pos[key]]
    return M


def reference_skew_matrix(vec, n):
    """Skew matrix A of a 2-form, phi(u ^ v) = u^T A v."""
    A = np.zeros((n, n))
    for (i, j), v in zip(lex_indices(n, 2), vec):
        A[i - 1, j - 1] = v
        A[j - 1, i - 1] = -v
    return A


def reference_derivation_tensor(n, p):
    """Slot replacement: dx_l in each slot of each dx_I goes to dx_m."""
    pos = lex_position(n, p)
    D = np.zeros((n, n, len(pos), len(pos)))
    for col, idx in enumerate(lex_indices(n, p)):
        for slot, l in enumerate(idx):
            for m in range(1, n + 1):
                new, sign = _sorted_sign(idx[:slot] + (m,) + idx[slot + 1:])
                if new is not None:
                    D[l - 1, m - 1, pos[new], col] += sign
    return D


def reference_wedge_columns(g, n, p):
    """The mod-d columns df ^ dx_J, one reference wedge per J."""
    df = ExteriorElement.from_vector(g)
    return np.column_stack([
        reference_wedge(df, ExteriorElement(n, p - 1, {J: 1.0})).vec
        for J in lex_indices(n, p - 1)])


def sparse_vector(size, rng):
    """Gaussian entries with about 40% exact zeros, a signed zero and an
    entry below DROP_TOL."""
    v = rng.standard_normal(size)
    v[rng.random(size) < 0.4] = 0.0
    v[rng.integers(size)] = -0.0
    v[rng.integers(size)] = 0.5 * DROP_TOL
    return v


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestWedgeTableAgainstLoops:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_forms(self, n):
        r = np.random.default_rng([19, n])
        for p in range(n + 1):
            assert same_bytes(derivation_tensor(n, p),
                              reference_derivation_tensor(n, p))
            if p == 0:
                continue
            vec = sparse_vector(len(lex_indices(n, p)), r)
            assert same_bytes(contraction_matrix(vec, n, p),
                              reference_contraction(vec, n, p))
            g = sparse_vector(n, r)
            assert same_bytes(wedge_matrix(g, n, p).T,
                              reference_wedge_columns(g, n, p))
            G = np.array([[g, -g], [0.0 * g, 2.0 * g]])
            assert same_bytes(
                wedge_matrix(np.moveaxis(G, -1, 0), n, p),
                np.moveaxis(np.array([[wedge_matrix(h, n, p) for h in row]
                                      for row in G]), 2, 0))
            if p == 2:
                assert same_bytes(contraction_matrix(vec, n, 2),
                                  reference_skew_matrix(vec, n))
            if p > 1:
                phi = ExteriorElement.from_coeff_vector(n, p, vec)
                assert same_bytes(FormEvaluator(phi).contract_t,
                                  reference_contraction(
                                      phi.to_coeff_vector(), n, p).T)

    @pytest.mark.parametrize("name,params", CATALOGUE_SPECS,
                             ids=[f"{n}{p}" for n, p in CATALOGUE_SPECS])
    def test_catalogue(self, name, params):
        cal = catalogue(name, *params)
        n, p, vec = cal.n, cal.p, cal.form.to_coeff_vector()
        M = reference_contraction(vec, n, p)
        assert same_bytes(contraction_matrix(vec, n, p), M)
        assert same_bytes(FormEvaluator(cal.form).contract_t, M.T)
        if p == 2:
            assert same_bytes(contraction_matrix(vec, n, 2),
                              reference_skew_matrix(vec, n))
        g = sparse_vector(n, np.random.default_rng(n))
        assert same_bytes(wedge_matrix(g, n, p).T,
                          reference_wedge_columns(g, n, p))


def relative_gap(fast, slow):
    """Largest entry gap of two elements over the reference's largest entry."""
    return np.abs(fast.vec - slow.vec).max() / max(np.abs(slow.vec).max(),
                                                   np.finfo(float).tiny)


class TestOperatorsAgainstLoops:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_elements(self, n):
        r = np.random.default_rng([23, n])

        def element(p):
            return ExteriorElement.from_coeff_vector(
                n, p, sparse_vector(len(lex_indices(n, p)), r))

        for p in range(n + 1):
            a = element(p)
            assert same_bytes(hodge_star(a).vec, reference_hodge_star(a).vec)
            if p > 0:
                v = sparse_vector(n, r)
                assert relative_gap(interior_product(v, a),
                                    reference_interior_product(v, a)) <= 1e-14
            for q in range(n - p + 1):
                b = element(q)
                assert relative_gap(wedge(a, b), reference_wedge(a, b)) \
                    <= 1e-14


# -- the sign and minor kernels against the code they replaced ----------------

def reference_wedge_table(n, p, q):
    """The former per-(I, J) loop of `wedge_table`."""
    pos = lex_position(n, p)
    rows = [(j, i, pos[idx], sign)
            for j, J in enumerate(lex_indices(n, p - q) if q <= p else ())
            for i, I in enumerate(lex_indices(n, q))
            for idx, sign in [_sorted_sign(I + J)] if idx is not None]
    return tuple(np.array(rows, dtype=int).reshape(-1, 4).T)


def reference_dense_tensor(phi):
    """The former permutation loop of `_dense_tensor`."""
    rows, vec = _lex_array(phi.n, phi.p), phi.to_coeff_vector()
    T = np.zeros((phi.n,) * phi.p)
    for perm in itertools.permutations(range(phi.p)):
        T[tuple(rows[:, perm].T)] = _sorted_sign(perm)[1] * vec
    return T


def reference_value_and_grad(phi, U):
    """The former cofactor gather of `FormEvaluator.value_and_grad` on an
    (S, n, p) stack: the (p-1)-minors indexed by lex rows J and, for each
    k, the columns other than k."""
    n, p = phi.n, phi.p
    keep = np.array([[c for c in range(p) if c != k] for k in range(p)])
    eta = _stack_dets(U[:, _lex_array(n, p - 1)[None, :, :, None],
                        keep[:, None, None, :]])
    G = ((eta @ contraction_matrix(phi.vec, n, p).T)
         * ((-1.0) ** np.arange(p))[:, None]).transpose(0, 2, 1)
    return (U[:, None, :, 0] @ G[:, :, :1])[:, 0, 0], G


class TestSignAndMinorKernels:
    def test_sort_sign_matches_insertion_sort(self):
        r = np.random.default_rng(29)
        for q in range(7):
            rows = r.integers(0, 9, size=(300, q))     # many repeat an index
            sorted_rows, sign = _sort_sign(rows)
            for row, srow, s in zip(rows.tolist(), sorted_rows.tolist(),
                                    sign.tolist()):
                assert s == _sorted_sign(row)[1]
                assert srow == sorted(row)
            assert (sign == 0).any() == (q > 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_wedge_table_matches_loop(self, n):
        for p in range(n + 1):
            for q in range(p + 2):
                table, expect = wedge_table(n, p, q), reference_wedge_table(
                    n, p, q)
                assert all(a.dtype == b.dtype and same_bytes(a, b)
                           for a, b in zip(table, expect))

    @pytest.mark.parametrize("name,params", CATALOGUE_SPECS,
                             ids=[f"{n}{p}" for n, p in CATALOGUE_SPECS])
    def test_dense_tensor_matches_permutation_loop(self, name, params):
        phi = catalogue(name, *params).form
        assert np.array_equal(_dense_tensor(phi), reference_dense_tensor(phi))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_value_and_grad_bytes_match_cofactor_gather(self, n):
        r = np.random.default_rng([31, n])
        for p in range(2, n + 1):
            phi = ExteriorElement.from_coeff_vector(
                n, p, r.standard_normal(len(lex_indices(n, p))))
            for S in (1, 4, 60):
                U = np.linalg.qr(r.standard_normal((S, n, p)))[0]
                f, G = FormEvaluator(phi).value_and_grad(U)
                f_ref, G_ref = reference_value_and_grad(phi, U)
                assert same_bytes(f, f_ref) and same_bytes(G, G_ref)

    def test_compound_of_a_stack_is_the_stack_of_compounds(self):
        Q = rng.standard_normal((5, 3, 6))
        for p in range(4):
            assert same_bytes(compound(Q, p),
                              np.array([compound(q, p) for q in Q]))

    def test_only_exterior_computes_signs_and_minors(self):
        """No module but `exterior` names the determinant and lex-array
        kernels, and none names the deleted insertion sort."""
        for path in Path(calibr.__file__).parent.glob("*.py"):
            names = set()
            for node in ast.walk(ast.parse(path.read_text())):
                names.update(getattr(node, key) for key in
                             ("id", "attr", "name") if isinstance(
                                 getattr(node, key, None), str))
            assert "_sorted_sign" not in names, path.name
            if path.name != "exterior.py":
                assert not names & {"_stack_dets", "_lex_array"}, path.name
