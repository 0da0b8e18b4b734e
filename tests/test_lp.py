import math

import numpy as np
import pytest
from scipy.optimize import linprog

from calibr import cones, duality
from calibr.calibrations import catalogue
from calibr.cones import mass_norm_estimate
from calibr.duality import (assemble_boundary_model, boundary_alternative,
                            build_boundary_model, build_jensen_model,
                            jensen_alternative)
from calibr.exterior import ExteriorElement, SimplePlane, lex_indices
from calibr.grassmann import (kaehler_structure, random_plane_set, rng_stream,
                              sample_grassmannian)
from calibr.lp import FEAS_TOL, LPResult, solve_lp

rng = np.random.default_rng(3)


class TestBasics:
    def test_tiny_equality(self):
        # min x1 + x2 s.t. x1 + 2 x2 = 4, x >= 0  -> x = (0, 2)
        res = solve_lp([1.0, 1.0], [[1.0, 2.0]], [4.0])
        assert res.status == 'optimal'
        assert abs(res.obj - 2.0) < 1e-9
        assert np.allclose(res.x, [0.0, 2.0], atol=1e-9)

    def test_infeasible_gives_farkas(self):
        # x1 + x2 = -1, x >= 0 is infeasible
        res = solve_lp([0.0, 0.0], [[1.0, 1.0]], [-1.0])
        assert res.status == 'infeasible'
        y = res.y
        # Farkas: y.A <= 0 and y.b > 0
        assert (y @ np.array([[1.0, 1.0]])).max() <= 1e-9
        assert y @ np.array([-1.0]) > 1e-9

    def test_unbounded(self):
        # min -x1 s.t. x1 - x2 = 0, x >= 0
        res = solve_lp([-1.0, 0.0], [[1.0, -1.0]], [0.0])
        assert res.status == 'unbounded'

    def test_upper_bounds(self):
        # min -x1 - x2 s.t. x1 + x2 = 1.5, 0 <= x <= 1
        res = solve_lp([-1.0, -1.0], [[1.0, 1.0]], [1.5], upper=[1.0, 1.0])
        assert res.status == 'optimal'
        assert abs(res.obj + 1.5) < 1e-9

    def test_free_variable_via_box(self):
        # min a s.t. a = -3, -5 <= a <= 5
        res = solve_lp([1.0], [[1.0]], [-3.0], lower=[-5.0], upper=[5.0])
        assert res.status == 'optimal'
        assert abs(res.x[0] + 3.0) < 1e-9

    def test_duals_match_objective(self):
        A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 2.0]])
        b = np.array([2.0, 3.0])
        c = np.array([1.0, 2.0, 0.5])
        res = solve_lp(c, A, b)
        assert res.status == 'optimal'
        # strong duality at optimum with x >= 0: obj = y.b
        assert abs(res.obj - res.y @ b) < 1e-8


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_equality_lps(self, seed):
        r = np.random.default_rng(seed)
        m, n = r.integers(1, 5), r.integers(2, 9)
        A = r.standard_normal((m, n))
        c = r.standard_normal(n)
        # build b from a random nonnegative point so some are feasible
        if seed % 3 == 0:
            b = r.standard_normal(m)          # possibly infeasible
        else:
            b = A @ np.abs(r.standard_normal(n))
        upper = None
        if seed % 2 == 0:
            upper = np.full(n, 10.0)          # keeps things bounded
        ours = solve_lp(c, A, b, upper=upper)
        bounds = [(0, None if upper is None else upper[j]) for j in range(n)]
        ref = linprog(c, A_eq=A, b_eq=b, bounds=bounds, method="highs")
        if ref.status == 2:
            assert ours.status == 'infeasible'
        elif ref.status == 3:
            assert ours.status == 'unbounded'
        else:
            assert ours.status == 'optimal'
            assert abs(ours.obj - ref.fun) < 1e-6 * max(1.0, abs(ref.fun))
            assert np.abs(A @ ours.x - b).max() < 1e-7

    def test_degenerate_cycling_guard(self):
        # classic Beale-style degeneracy; Bland must terminate
        A = np.array([
            [0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0],
            [0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ])
        b = np.array([0.0, 0.0, 1.0])
        c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
        ours = solve_lp(c, A, b)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * 7, method="highs")
        assert ours.status == 'optimal'
        assert abs(ours.obj - ref.fun) < 1e-8


# -- the Bland simplex the revised simplex replaced, kept as the reference ---

class BlandTableau:
    """Bland's smallest eligible index for both entering and leaving
    variables, per-variable status as 'B', 'L', 'U'."""

    def __init__(self, A, c, l, u, basis, status, x):
        self.A = A
        self.c = c
        self.l = l
        self.u = u
        self.basis = basis          # list of variable indices, length m
        self.status = status        # per-variable: 'B', 'L', 'U'
        self.x = x
        self.m, self.nv = A.shape
        self.b = A @ x              # fixed right-hand side

    def duals(self):
        B = self.A[:, self.basis]
        return np.linalg.solve(B.T, self.c[self.basis])

    def _refresh_basics(self):
        """Recompute basic values from the nonbasic bounds (drift control)."""
        rhs = self.b.copy()
        for j in range(self.nv):
            if self.status[j] == 'L':
                self.x[j] = self.l[j]
            elif self.status[j] == 'U':
                self.x[j] = self.u[j]
            if self.status[j] != 'B':
                rhs -= self.A[:, j] * self.x[j]
        B = self.A[:, self.basis]
        xb = np.linalg.solve(B, rhs)
        for k, j in enumerate(self.basis):
            self.x[j] = xb[k]

    def iterate(self, tol, max_iter):
        it = 0
        while it < max_iter:
            it += 1
            if it % 64 == 0:
                self._refresh_basics()
            y = self.duals()
            z = self.c - y @ self.A
            entering = -1
            direction = 0.0
            for j in range(self.nv):     # Bland: smallest eligible index
                if self.status[j] == 'L' and z[j] < -tol:
                    entering, direction = j, 1.0
                    break
                if self.status[j] == 'U' and z[j] > tol:
                    entering, direction = j, -1.0
                    break
            if entering < 0:
                self._refresh_basics()
                return 'optimal', it
            B = self.A[:, self.basis]
            d = np.linalg.solve(B, self.A[:, entering]) * direction

            # ratio test: collect the blocking step for every basic variable
            span = self.u[entering] - self.l[entering]
            ratios = np.full(self.m, np.inf)
            hits_lower = np.zeros(self.m, dtype=bool)
            for k in range(self.m):
                jb = self.basis[k]
                if d[k] > tol:
                    ratios[k] = (self.x[jb] - self.l[jb]) / d[k]
                    hits_lower[k] = True
                elif d[k] < -tol:
                    ratios[k] = (self.u[jb] - self.x[jb]) / (-d[k])
            t_min = min(float(ratios.min()), span)
            if not np.isfinite(t_min):
                return 'unbounded', it
            t_min = max(t_min, 0.0)
            # Bland leaving rule: among blockers at the minimum ratio, the
            # basic variable with the smallest index leaves
            leave = -1
            for k in range(self.m):
                if ratios[k] <= t_min + 1e-12:
                    if leave < 0 or self.basis[k] < self.basis[leave]:
                        leave = k
            if leave >= 0 and ratios[leave] > span:
                leave = -1            # the entering bound flip wins

            self.x[entering] += direction * t_min
            for k in range(self.m):
                self.x[self.basis[k]] -= d[k] * t_min
            if leave < 0:
                self.status[entering] = 'U' if self.status[entering] == 'L' else 'L'
                self.x[entering] = (self.u[entering] if self.status[entering] == 'U'
                                    else self.l[entering])
            else:
                out = self.basis[leave]
                self.x[out] = self.l[out] if hits_lower[leave] else self.u[out]
                self.status[out] = 'L' if hits_lower[leave] else 'U'
                self.basis[leave] = entering
                self.status[entering] = 'B'
        return 'maxiter', it


def bland_solve_lp(c, A, b, lower=None, upper=None, tol=FEAS_TOL, max_iter=None):
    """Two-phase bounded-variable primal simplex with Bland's rule at every
    pivot and two dense solves per pivot.

    Returns an LPResult.  ``y`` holds the equality-row multipliers: for an
    optimal solve these are the LP duals; for an infeasible one they are the
    phase-1 duals, i.e. a Farkas certificate (y.A <= 0 on variables at their
    lower bound zero, y.b > 0).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    b = np.asarray(b, dtype=float).reshape(m)
    c = np.asarray(c, dtype=float).reshape(n)
    l = np.zeros(n) if lower is None else np.asarray(lower, dtype=float).reshape(n)
    u = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float).reshape(n)
    if not np.all(np.isfinite(l)):
        raise ValueError("lower bounds must be finite")
    if np.any(u < l):
        raise ValueError("upper bound below lower bound")
    if max_iter is None:
        max_iter = 200 * (n + m + 10)

    # start all structural variables at their lower bound
    x0 = l.copy()
    r = b - A @ x0
    signs = np.where(r >= 0, 1.0, -1.0)
    A1 = np.hstack([A, np.diag(signs)])
    l1 = np.concatenate([l, np.zeros(m)])
    u1 = np.concatenate([u, np.full(m, np.inf)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    x1 = np.concatenate([x0, np.abs(r)])
    basis = list(range(n, n + m))
    status = ['L'] * n + ['B'] * m

    tab = BlandTableau(A1, c1, l1, u1, basis, status, x1)
    st, it1 = tab.iterate(tol, max_iter)
    phase1 = float(c1 @ tab.x)
    if st == 'maxiter':
        return LPResult('maxiter', iterations=it1, phase1_obj=phase1)
    if phase1 > tol * max(1.0, float(np.abs(b).max(initial=0.0))):
        y = tab.duals()
        return LPResult('infeasible', y=y, phase1_obj=phase1, iterations=it1)

    # phase 2: freeze the artificials at zero via zero-width bounds
    tab.u[n:] = 0.0
    tab.x[n:] = np.clip(tab.x[n:], 0.0, 0.0)
    tab.c = np.concatenate([c, np.zeros(m)])
    for j in range(n, n + m):
        if tab.status[j] != 'B':
            tab.status[j] = 'L'
    st, it2 = tab.iterate(tol, max_iter)
    x = tab.x[:n].copy()
    obj = float(c @ x)
    if st == 'unbounded':
        return LPResult('unbounded', x=x, obj=obj, iterations=it1 + it2,
                        phase1_obj=phase1)
    if st == 'maxiter':
        return LPResult('maxiter', x=x, obj=obj, iterations=it1 + it2,
                        phase1_obj=phase1)
    return LPResult('optimal', x=x, obj=obj, y=tab.duals(),
                    iterations=it1 + it2, phase1_obj=phase1)


# -- the revised simplex before its loop was trimmed, kept as the reference --

L_, U_, B_ = 0, 1, 2
PRICE_SIGN = np.array([-1.0, 1.0, 0.0])


class EtaTableau:
    """The revised simplex loop before it was trimmed: bounds gathered by
    basis at every pivot and the first basis inverse from np.linalg.inv."""

    def __init__(self, A, c, l, u, basis, status, x):
        self.A, self.c, self.l, self.u = A, c, l, u
        self.basis = basis          # int array of variable indices, length m
        self.status = status        # int8 array of L_, U_, B_ per variable
        self.x = x
        self.b = A @ x              # fixed right-hand side
        self.Binv = np.linalg.inv(A[:, basis])
        self.bland_pivots = 0

    def duals(self):
        return self.c[self.basis] @ self.Binv

    def _refresh_basics(self):
        """Refactor the basis inverse and recompute the basic values from
        the nonbasic bounds (drift control)."""
        at_l, at_u = self.status == L_, self.status == U_
        self.x[at_l] = self.l[at_l]
        self.x[at_u] = self.u[at_u]
        nb = at_l | at_u
        self.Binv = np.linalg.inv(self.A[:, self.basis])
        self.x[self.basis] = self.Binv @ (self.b - self.A[:, nb] @ self.x[nb])

    def iterate(self, tol, max_iter):
        it = 0
        bland = False
        while it < max_iter:
            it += 1
            if it % 64 == 0:
                self._refresh_basics()
            z = self.c - self.duals() @ self.A
            violation = PRICE_SIGN[self.status] * z
            eligible = violation > tol
            if not eligible.any():
                self._refresh_basics()
                return 'optimal', it
            # argmax returns the first maximum: the smallest eligible index
            # under Bland, the lowest index among tied violations otherwise
            entering = int(np.argmax(eligible if bland else violation))
            self.bland_pivots += bland
            direction = 1.0 if self.status[entering] == L_ else -1.0
            alpha = self.Binv @ self.A[:, entering]
            d = alpha * direction

            # ratio test: the blocking step of every basic variable, dividing
            # only where d is clear of zero
            xb = self.x[self.basis]
            room = np.where(d > 0.0, xb - self.l[self.basis],
                            self.u[self.basis] - xb)
            size = np.abs(d)
            ratios = np.divide(room, size, out=np.full(len(d), np.inf),
                               where=size > tol)
            span = self.u[entering] - self.l[entering]
            t_min = min(float(ratios.min()), span)
            if not math.isfinite(t_min):
                return 'unbounded', it
            t_min = max(t_min, 0.0)
            bland = t_min == 0.0
            # Bland leaving rule: among blockers at the minimum ratio, the
            # basic variable with the smallest index leaves
            blockers = np.flatnonzero(ratios <= t_min + 1e-12)
            leave = -1
            if blockers.size:
                leave = int(blockers[np.argmin(self.basis[blockers])])
                if ratios[leave] > span:
                    leave = -1        # the entering bound flip wins

            self.x[entering] += direction * t_min
            self.x[self.basis] = xb - d * t_min
            if leave < 0:
                to_upper = self.status[entering] == L_
                self.status[entering] = U_ if to_upper else L_
                self.x[entering] = (self.u if to_upper else self.l)[entering]
            else:
                out = self.basis[leave]
                hits_lower = d[leave] > 0.0
                self.x[out] = (self.l if hits_lower else self.u)[out]
                self.status[out] = L_ if hits_lower else U_
                self.basis[leave] = entering
                self.status[entering] = B_
                # eta update: the new inverse maps the entering column to
                # the unit vector of the pivot row
                pivot_row = self.Binv[leave] / alpha[leave]
                self.Binv -= alpha[:, None] * pivot_row
                self.Binv[leave] = pivot_row
        return 'maxiter', it


def eta_solve_lp(c, A, b, lower=None, upper=None, tol=FEAS_TOL, max_iter=None):
    """The two-phase cold solve around EtaTableau."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    b = np.asarray(b, dtype=float).reshape(m)
    c = np.asarray(c, dtype=float).reshape(n)
    l = np.zeros(n) if lower is None else np.asarray(lower, dtype=float).reshape(n)
    u = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float).reshape(n)
    if not np.all(np.isfinite(l)):
        raise ValueError("lower bounds must be finite")
    if np.any(u < l):
        raise ValueError("upper bound below lower bound")
    if max_iter is None:
        max_iter = 200 * (n + m + 10)

    # start all structural variables at their lower bound
    r = b - A @ l
    A1 = np.hstack([A, np.diag(np.where(r >= 0, 1.0, -1.0))])
    l1 = np.concatenate([l, np.zeros(m)])
    u1 = np.concatenate([u, np.full(m, np.inf)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    x1 = np.concatenate([l, np.abs(r)])
    status = np.repeat(np.array([L_, B_], dtype=np.int8), [n, m])
    tab = EtaTableau(A1, c1, l1, u1, np.arange(n, n + m), status, x1)
    st, it1 = tab.iterate(tol, max_iter)
    phase1 = float(c1 @ tab.x)
    x = obj = y = None
    it2 = 0
    infeasible = phase1 > tol * max(1.0, float(np.abs(b).max(initial=0.0)))
    if st != 'maxiter' and infeasible:
        st, y = 'infeasible', tab.duals()
    elif st != 'maxiter':
        # phase 2: freeze the artificials at zero via zero-width bounds
        tab.u[n:] = 0.0
        tab.x[n:] = 0.0
        tab.c = np.concatenate([c, np.zeros(m)])
        tab.status[n:][tab.status[n:] != B_] = L_
        st, it2 = tab.iterate(tol, max_iter)
        x = tab.x[:n].copy()
        obj = float(c @ x)
        if st == 'optimal':
            y = tab.duals()
    return LPResult(st, x=x, obj=obj, y=y, phase1_obj=phase1,
                    iterations=it1 + it2,
                    meta={"phase1_iterations": it1, "phase2_iterations": it2,
                          "bland_pivots": tab.bland_pivots})


# -- differential tests: the revised simplex against the reference and HiGHS -

HIGHS_STATUS = {0: 'optimal', 2: 'infeasible', 3: 'unbounded'}


def check_farkas(y, A, b, upper):
    """y proves A x = b, 0 <= x <= upper infeasible: y.A <= 0 on the columns
    without an upper bound and y.b above the largest y.A x over the box."""
    yA = y @ A
    free = np.isinf(upper)
    assert yA[free].max(initial=-np.inf) <= 1e-9 * max(1.0, np.abs(yA).max())
    assert y @ b > np.maximum(yA[~free], 0.0) @ upper[~free]


def check_same_bits(new, old):
    """Two results with the same status, iterations and meta, and the same
    x, objective and y bit for bit (signed zeros included)."""
    assert (new.status, new.iterations, new.meta, new.obj, new.phase1_obj) \
        == (old.status, old.iterations, old.meta, old.obj, old.phase1_obj)
    for a, b in ((new.x, old.x), (new.y, old.y)):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))


def check_three_ways(c, A, b, lower=None, upper=None):
    """The revised simplex agrees with the reference and with HiGHS on the
    status and the objective (1e-9 relative); its x solves A x = b within
    the bounds and its meta splits the iterations by phase.  It pivots as
    the loop before the trim did, bit for bit."""
    new = solve_lp(c, A, b, lower=lower, upper=upper)
    check_same_bits(new, eta_solve_lp(c, A, b, lower=lower, upper=upper))
    ref = bland_solve_lp(c, A, b, lower=lower, upper=upper)
    n = A.shape[1]
    lo = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    up = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    highs = linprog(c, A_eq=A, b_eq=b, method="highs",
                    bounds=[(l, None if np.isinf(u) else u)
                            for l, u in zip(lo, up)])
    assert new.status == ref.status == HIGHS_STATUS[highs.status]
    assert new.iterations == (new.meta["phase1_iterations"]
                              + new.meta["phase2_iterations"])
    assert 0 <= new.meta["bland_pivots"] <= new.iterations
    if new.status == 'optimal':
        for obj in (ref.obj, highs.fun):
            assert abs(new.obj - obj) <= 1e-9 * max(1.0, abs(obj))
        assert np.abs(A @ new.x - b).max() <= 1e-9 * max(1.0, np.abs(b).max())
        assert (new.x >= lo - FEAS_TOL).all() and (new.x <= up + FEAS_TOL).all()
    if new.status == 'infeasible' and lower is None:
        check_farkas(new.y, A, b, up)
    return new, ref


def random_lp(seed):
    """m <= 40 rows, n <= 200 columns.  Even seeds bound every variable
    above, odd ones leave them unbounded above; the right-hand side comes
    from a point in the box, moved far off it for seeds 0 mod 3 (often
    infeasible); the cost is dual feasible (bounded below) except for
    seeds 1 mod 4."""
    r = np.random.default_rng(seed)
    m = int(r.integers(1, 41))
    n = int(r.integers(m + 1, 201))
    A = r.standard_normal((m, n))
    c = A.T @ r.standard_normal(m) + r.uniform(0.0, 1.0, n)
    if seed % 4 == 1:
        c = r.standard_normal(n)
    upper = r.uniform(0.5, 3.0, n) if seed % 2 == 0 else None
    point = r.uniform(0.0, 0.5, n)
    b = A @ point
    if seed % 3 == 0:
        b += n * r.standard_normal(m)
    return c, A, b, upper


def recorded_lps(monkeypatch, module, run):
    """Every LP the calls in run() hand to module.solve_lp."""
    lps = []

    def record(c, A, b, lower=None, upper=None, **kwargs):
        lps.append((c, A, b, lower, upper))
        return solve_lp(c, A, b, lower=lower, upper=upper, **kwargs)
    monkeypatch.setattr(module, "solve_lp", record)
    run()
    monkeypatch.undo()
    return lps


class TestRevisedSimplexDifferential:
    @pytest.mark.parametrize("seed", range(24))
    def test_random_lps(self, seed):
        c, A, b, upper = random_lp(seed)
        check_three_ways(c, A, b, upper=upper)

    @pytest.mark.parametrize("seed", range(8))
    def test_zero_right_hand_side(self, seed):
        # every basis of the start is degenerate
        c, A, _, upper = random_lp(100 + seed)
        check_three_ways(c, A, np.zeros(len(A)), upper=upper)

    @pytest.mark.parametrize("seed", range(8))
    def test_infeasible_certificate(self, seed):
        # columns turned so that y.A <= 0 for a hidden y with y.b > 0
        r = np.random.default_rng(200 + seed)
        m, n = int(r.integers(2, 30)), int(r.integers(5, 120))
        y = r.standard_normal(m)
        A = r.standard_normal((m, n))
        A[:, y @ A > 0] *= -1.0
        b = r.standard_normal(m)
        b += (1.0 - y @ b) * y / (y @ y)            # y.b = 1
        new, _ = check_three_ways(r.standard_normal(n), A, b)
        assert new.status == 'infeasible'
        assert (new.y @ A).max() <= 1e-9 and new.y @ b > 0.0

    def test_mass_lps_match_the_reference(self, monkeypatch):
        # the [A, -A] mass LPs of an R^6 3-vector, round by round: the same
        # objectives and the same duals, so comass prices the same forms
        gens = random_plane_set(6, 3, count=40, seed=1729)
        rng = rng_stream(1729, 6)
        xi = ExteriorElement(6, 3, {idx: rng.standard_normal()
                                    for idx in lex_indices(6, 3)})
        lps = recorded_lps(monkeypatch, cones, lambda: mass_norm_estimate(
            xi, gens, max_rounds=10, comass_multistarts=4))
        assert len(lps) == 10
        pivots = np.zeros(2, dtype=int)
        for c, A, b, _, _ in lps:
            new, ref = check_three_ways(c, A, b)
            assert new.status == 'optimal'
            assert abs(new.obj - ref.obj) <= 1e-12 * abs(ref.obj)
            assert np.abs(new.y - ref.y).max() <= 1e-12 * np.abs(ref.y).max()
            pivots += (new.iterations, ref.iterations)
        assert pivots[0] < pivots[1]

    def test_criterion_8_streams(self, monkeypatch):
        # the primal, separation and min-mass LPs of the boundary (plain
        # and lambda) and Jensen alternatives at the criterion-8 seed
        omega = catalogue("kaehler", 2, 1)
        ss = sample_grassmannian(omega, tol=1e-8, count=8, seed=1729)

        def streams():
            for inst in range(6):
                rng = rng_stream(1729, 8000 + inst)
                model = build_boundary_model(omega, rng.uniform(-1, 1, (4, 4)),
                                             ss, degree=1, planes_per_site=3)
                A, _ = assemble_boundary_model(
                    model, np.zeros(len(model.test_family)))
                S = A @ np.abs(rng.standard_normal(A.shape[1]))
                if inst % 2 == 1:
                    S = S * rng.choice([-1.0, 1.0], size=len(S))
                boundary_alternative(model, S)
                boundary_alternative(model, S, lam=0.5 * np.abs(S).sum())
                rng = rng_stream(1729, 9000 + inst)
                model = build_jensen_model(omega, rng.uniform(-1, 1, (5, 4)),
                                           ss, degree=2, planes_per_site=4)
                jensen_alternative(model, [0, 1, 2, 3], 4)
        lps = recorded_lps(monkeypatch, duality, streams)
        statuses = set()
        for c, A, b, lower, upper in lps:
            new, _ = check_three_ways(c, A, b, lower=lower, upper=upper)
            statuses.add(new.status)
        assert statuses == {'optimal', 'infeasible'}


def highs_solve(c, A, b, upper=None):
    return linprog(c, A_eq=A, b_eq=b, method="highs",
                   bounds=[(0, None if upper is None or np.isinf(u) else u)
                           for u in (np.full(len(c), np.inf) if upper is None
                                     else upper)])


class TestWarmStart:
    @pytest.mark.parametrize("seed", range(24))
    def test_appended_columns(self, seed):
        # column generation: the final basis of an LP stays a feasible basis
        # when columns are appended, so the warm solve skips phase 1
        c, A, b, upper = random_lp(seed)
        m, n = A.shape
        r = np.random.default_rng(300 + seed)
        A2 = np.hstack([A, r.standard_normal((m, 5))])
        c2 = np.append(c, A2[:, n:].T @ r.standard_normal(m)
                       + r.uniform(0.0, 1.0, 5))
        up2 = None if upper is None else np.append(upper, np.full(5, 2.0))
        first = solve_lp(c, A, b, upper=upper)
        warm = solve_lp(c2, A2, b, upper=up2, basis=first.basis)
        cold = solve_lp(c2, A2, b, upper=up2)
        highs = highs_solve(c2, A2, b, up2)
        assert warm.status == cold.status == HIGHS_STATUS[highs.status]
        if warm.status == 'optimal':
            for obj in (cold.obj, highs.fun):
                assert abs(warm.obj - obj) <= 1e-9 * max(1.0, abs(obj))
            assert np.abs(A2 @ warm.x - b).max() <= 1e-9 * max(
                1.0, np.abs(b).max())
            assert warm.x.min() >= -FEAS_TOL
        if first.status == 'infeasible':
            # the phase-1 basis names an artificial: a cold solve
            check_same_bits(warm, cold)
            assert np.array_equal(warm.basis, cold.basis)
        elif not first.x[np.setdiff1d(np.arange(n), first.basis)].any():
            # every nonbasic variable sat at its lower bound, zero
            assert warm.meta["phase1_iterations"] == 0

    @pytest.mark.parametrize("case", ["length", "range", "artificial",
                                      "singular", "infeasible"])
    def test_invalid_basis_starts_cold(self, case):
        c, A, b, upper = random_lp(2)
        m, n = A.shape
        A = A.copy()
        A[:, 1] = A[:, 0]
        basis = np.arange(2, m + 2)
        if case == "length":
            basis = basis[:-1]
        elif case == "range":
            basis[-1] = n + m
        elif case == "artificial":
            basis[-1] = n
        elif case == "singular":
            basis[:2] = 0, 1
        else:
            assert np.linalg.solve(A[:, basis], b).min() < 0.0
        warm = solve_lp(c, A, b, upper=upper, basis=basis)
        cold = solve_lp(c, A, b, upper=upper)
        check_same_bits(warm, cold)
        assert np.array_equal(warm.basis, cold.basis)
        assert cold.meta["phase1_iterations"] > 0

    def test_mass_rounds_match_cold_solves(self, monkeypatch):
        # the R^6 mass LPs of test_mass_lps_match_the_reference: each round
        # after the first starts from the last optimal basis, reaches the
        # cold objective and returns dual feasible multipliers
        gens = random_plane_set(6, 3, count=40, seed=1729)
        rng = rng_stream(1729, 6)
        xi = ExteriorElement(6, 3, {idx: rng.standard_normal()
                                    for idx in lex_indices(6, 3)})
        rounds = []

        def record(c, A, b, basis=None, **kwargs):
            res = solve_lp(c, A, b, basis=basis, **kwargs)
            rounds.append((c, A, b, basis, res))
            return res
        monkeypatch.setattr(cones, "solve_lp", record)
        mass_norm_estimate(xi, gens, max_rounds=10, comass_multistarts=4)
        assert len(rounds) == 10 and rounds[0][3] is None
        pivots = np.zeros(2, dtype=int)
        for c, A, b, basis, warm in rounds:
            cold = solve_lp(c, A, b)
            assert warm.status == cold.status == 'optimal'
            assert abs(warm.obj - cold.obj) <= 1e-12 * abs(cold.obj)
            assert (c - warm.y @ A).min() >= -FEAS_TOL
            if basis is not None:
                assert warm.meta["phase1_iterations"] == 0
            pivots += (warm.iterations, cold.iterations)
        assert pivots[0] < pivots[1]


def circle_jensen_inputs(x):
    """kaehler(2,1), its complex structure J, 8 sampled planes and the 12
    sites on the unit circle of the z1-line followed by x."""
    omega = catalogue("kaehler", 2, 1)
    J, _ = kaehler_structure(omega.form)
    samples = sample_grassmannian(omega, tol=1e-8, count=8, seed=0)
    t = np.arange(12) * np.pi / 6
    sites = np.vstack([np.column_stack([np.cos(t), np.sin(t),
                                        0.0 * t, 0.0 * t]), x])
    return omega, J, samples, sites


def lowest_complex_hessians(model, sites, certificate, J):
    """The least eigenvalue and its unit eigenvector of the Hermitian part
    H + J^T H J of the certificate's Hessian H at every site."""
    I, K = np.triu_indices(4)
    E = np.eye(4, dtype=int)
    h = np.einsum("kms,m->sk", model._derivatives(sites, E[I] + E[K]),
                  certificate)
    H = np.zeros((len(sites), 4, 4))
    H[:, I, K] = H[:, K, I] = h
    lam, V = np.linalg.eigh(H + J.T @ H @ J)
    return lam[:, 0], V[:, :, 0]


class TestSingularBasis:
    def test_outside_the_disc_first_round_certifies(self):
        # x = (1.05, 0, 0, 0) lies outside the circle's hull: the first
        # separating polynomial is psh on every complex line at every site,
        # so the grown-dictionary loop has nothing to add
        omega, J, samples, sites = circle_jensen_inputs([1.05, 0.0, 0.0, 0.0])
        model = build_jensen_model(omega, sites, samples, degree=2,
                                   dictionary=[list(samples.planes[:4])
                                               for _ in sites])
        res = jensen_alternative(model, list(range(12)), 12)
        assert res.dual == 'Certificate' and res.consistent
        low, _ = lowest_complex_hessians(model, sites, res.certificate, J)
        assert low.min() >= -1e-9

    def test_grown_jensen_dictionary(self):
        # the Jensen model on kaehler(2,1) with 12 sites on the unit circle
        # of the z1-line and x = (0.5, 0, 0.02, 0), every site starting from
        # 4 sampled planes; each round adds at every site the complex line
        # where the Hessian of the separating polynomial is most negative.
        # Near-parallel columns pile up until, in round 25 with 377 atoms, a
        # refactor of the separation LP's basis is singular: the solve
        # reports it and the alternative decides nothing, where LinAlgError
        # was raised.  The floor of 260 atoms is where the separation LP
        # went singular when it started cold, below its feasible origin.
        omega, J, samples, sites = circle_jensen_inputs([0.5, 0.0, 0.02, 0.0])
        dictionary = [list(samples.planes[:4]) for _ in sites]
        for _ in range(26):
            model = build_jensen_model(omega, sites, samples, degree=2,
                                       dictionary=dictionary)
            res = jensen_alternative(model, list(range(12)), 12)
            statuses = set(res.meta["lp_status"].values())
            assert statuses <= {'optimal', 'infeasible', 'singular'}
            if 'singular' in statuses:
                assert res.certificate is None and not res.consistent
            if res.certificate is None:
                break
            for site, (low, u) in enumerate(zip(*lowest_complex_hessians(
                    model, sites, res.certificate, J))):
                if low < -1e-9:
                    dictionary[site].append(SimplePlane(np.array([u, J @ u])))
        assert sum(map(len, dictionary)) >= 260


class TestPricing:
    @pytest.mark.parametrize("example", ["beale", "chvatal"])
    def test_fallback_ends_degenerate_cycles(self, example):
        # Beale's and Chvatal's cycling examples (Chvatal, Linear
        # Programming, ch. 3): the fallback prices some pivots and the
        # solve ends optimal; with Dantzig's rule alone the two-phase
        # solve of Chvatal's example cycles until max_iter
        if example == "beale":
            A = np.array([[0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0],
                          [0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]])
            c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
        else:
            A = np.array([[0.5, -5.5, -2.5, 9.0, 1.0, 0.0, 0.0],
                          [0.5, -1.5, -0.5, 1.0, 0.0, 1.0, 0.0],
                          [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]])
            c = -np.array([10.0, -57.0, -9.0, -24.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 1.0])
        new, _ = check_three_ways(c, A, b)
        assert new.status == 'optimal'
        assert new.meta["bland_pivots"] > 0

    def test_counts_are_python_ints(self):
        # x1 enters first and flips to its upper bound 1 before x3 blocks
        # (a bound flip, priced against the span of x1's box); every count
        # stays a Python int, as a report writes it
        A = np.array([[1.0, 1.0, 1.0]])
        res = solve_lp(np.array([-2.0, -1.0, 0.0]), A, np.array([10.0]),
                       upper=np.array([1.0, 1.0, np.inf]))
        assert res.status == 'optimal' and res.obj == -3.0
        assert res.iterations >= 2
        for key, value in res.meta.items():
            assert type(value) is int, key
        assert type(res.iterations) is int
