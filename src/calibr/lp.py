"""Bounded-variable revised primal simplex: Dantzig pricing, Bland fallback.

Solves  min c.x  subject to  A x = b,  l <= x <= u  (c, A, b and l finite,
u may be +inf).

The basis inverse is refactored every 64 pivots and at the end of each
phase, and updated by a rank-one (eta) step after each basis change.  The
entering variable has the largest reduced-cost violation (Dantzig), ties to
the lowest index.  The duality models produce degenerate pivots; after one,
pricing falls back to Bland's smallest eligible index until a pivot makes
progress, so a degenerate cycle could only go on under Bland's rule, which
does not cycle (Bland 1977; Chvatal, Linear Programming, ch. 3).  On
infeasible problems the phase-1 duals are the Farkas certificate used by
the alternative theorems.

Across pivots the loop keeps the basic costs, bounds and values in basis
order and one price sign per variable (-1 at its lower bound, +1 at its
upper bound, 0 basic), and a pivot updates only the entries it moves; x of
the basic variables is written back only on exit.
The arithmetic is that of gathering them at every pivot, so the results
match that loop (the reference in tests/test_lp.py) bit for bit.

A solve may start from a basis, typically the final basis of an earlier
solve of the same rows with columns added (column generation, as in the
mass-norm loop; Chvatal, ch. 8).  When that basis is nonsingular and, with
every nonbasic variable at its lower bound, primal feasible, phase 1 is
skipped; any other basis is ignored and the solve starts cold, with the
result a call without it gives.  A refactor that finds the basis singular
ends the solve with status 'singular' in place of numpy's LinAlgError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-9


@dataclass
class LPResult:
    status: str         # optimal | infeasible | unbounded | maxiter | singular
    x: np.ndarray | None = None
    obj: float | None = None
    y: np.ndarray | None = None          # row multipliers of the final phase
    phase1_obj: float = 0.0
    iterations: int = 0
    meta: dict = field(default_factory=dict)
    basis: np.ndarray | None = None      # final basis; n + i: row i's artificial


class _Tableau:
    def __init__(self, A, c, l, u, basis, sign, x, Binv):
        self.A, self.c, self.l, self.u = A, c, l, u
        self.basis = basis          # int array of variable indices, length m
        # price sign per variable, turning its reduced cost into a violation:
        # -1 at its lower bound, +1 at its upper bound, 0 basic
        self.sign = sign
        self.x = x
        self.b = A @ x              # fixed right-hand side
        self.Binv = Binv            # inverse of A[:, basis]
        self.bland_pivots = 0

    def duals(self):
        return self.c[self.basis] @ self.Binv

    def _refresh_basics(self):
        """Refactor the basis inverse and recompute the basic values from
        the nonbasic bounds (drift control).  False, with nothing changed,
        when the basis is singular."""
        try:
            self.Binv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError:
            return False
        at_l, at_u = self.sign < 0.0, self.sign > 0.0
        self.x[at_l] = self.l[at_l]
        self.x[at_u] = self.u[at_u]
        nb = at_l | at_u
        self.x[self.basis] = self.Binv @ (self.b - self.A[:, nb] @ self.x[nb])
        return True

    def iterate(self, tol, max_iter):
        A, c, l, u, x = self.A, self.c, self.l, self.u, self.x
        basis, sign, Binv = self.basis, self.sign, self.Binv
        # in basis order, updated at each pivot; x[basis] is stale until xb
        # is written back on exit (a refactor recomputes both from the
        # nonbasic values)
        cb, lb, ub, xb = c[basis], l[basis], u[basis], x[basis]
        unblocked = np.full(len(basis), np.inf)
        it = 0
        bland = False
        status = 'maxiter'
        while it < max_iter:
            it += 1
            if it % 64 == 0:
                if not self._refresh_basics():
                    status = 'singular'
                    break
                Binv, xb = self.Binv, x[basis]
            violation = sign * (c - (cb @ Binv) @ A)
            # argmax returns the first maximum: the smallest eligible index
            # under Bland, the lowest index among tied violations otherwise
            if bland:
                eligible = violation > tol
                entering = int(eligible.argmax())
                optimal = not eligible[entering]
            else:
                entering = int(violation.argmax())
                optimal = violation[entering] <= tol
            if optimal:
                status = 'optimal'
                break
            self.bland_pivots += bland
            to_upper = sign[entering] < 0.0
            alpha = Binv @ A[:, entering]
            d = alpha if to_upper else -alpha

            # ratio test: the blocking step of every basic variable, dividing
            # only where d is clear of zero
            falls = d > 0.0
            room = np.where(falls, xb - lb, ub - xb)
            size = np.abs(d)
            ratios = np.divide(room, size, out=unblocked.copy(),
                               where=size > tol)
            span = float(u[entering] - l[entering])
            t_min = min(float(ratios.min(initial=math.inf)), span)
            if not math.isfinite(t_min):
                status = 'unbounded'
                break
            t_min = max(t_min, 0.0)
            bland = t_min == 0.0
            # Bland leaving rule: among blockers at the minimum ratio, the
            # basic variable with the smallest index leaves
            blockers = (ratios <= t_min + 1e-12).nonzero()[0]
            leave = -1
            if len(blockers) == 1:
                leave = int(blockers[0])
            elif len(blockers):
                leave = int(blockers[basis[blockers].argmin()])
            if leave >= 0 and ratios[leave] > span:
                leave = -1            # the entering bound flip wins

            xb -= d * t_min
            if leave < 0:
                sign[entering] = -sign[entering]
                x[entering] = (u if to_upper else l)[entering]
            else:
                out = basis[leave]
                hits_lower = falls[leave]
                x[out] = (l if hits_lower else u)[out]
                sign[out] = -1.0 if hits_lower else 1.0
                xb[leave] = x[entering] + (t_min if to_upper else -t_min)
                basis[leave] = entering
                sign[entering] = 0.0
                cb[leave] = c[entering]
                lb[leave], ub[leave] = l[entering], u[entering]
                # eta update: the new inverse maps the entering column to
                # the unit vector of the pivot row
                pivot_row = Binv[leave] / alpha[leave]
                Binv -= alpha[:, None] * pivot_row
                Binv[leave] = pivot_row
        x[basis] = xb
        if status == 'optimal' and not self._refresh_basics():
            status = 'singular'
        return status, it


def _warm_tableau(c, A, b, l, u, basis, feas_tol):
    """The phase-2 tableau at basis, every nonbasic variable at its lower
    bound, or None unless basis names m distinct columns of A whose matrix
    is nonsingular and whose basic solution lies within the bounds and
    solves A x = b, both within feas_tol."""
    m, n = A.shape
    basis = np.asarray(basis)
    if (basis.shape != (m,) or basis.dtype.kind not in "iu"
            or basis.min(initial=0) < 0 or basis.max(initial=0) >= n):
        return None
    nb = np.ones(n, dtype=bool)
    nb[basis] = False
    if np.count_nonzero(nb) != n - m:       # a repeated column
        return None
    basis = basis.astype(np.intp)      # a copy: the tableau pivots it
    try:
        Binv = np.linalg.inv(A[:, basis])
    except np.linalg.LinAlgError:
        return None
    x = l.copy()
    x[basis] = Binv @ (b - A[:, nb] @ x[nb])
    if ((x < l - feas_tol).any() or (x > u + feas_tol).any()
            or np.abs(A @ x - b).max(initial=0.0) > feas_tol):
        return None
    return _Tableau(A, c, l, u, basis, np.where(nb, -1.0, 0.0), x, Binv)


def solve_lp(c, A, b, lower=None, upper=None, basis=None):
    """Two-phase bounded-variable primal simplex.

    Returns an LPResult.  ``y`` holds the equality-row multipliers: for an
    optimal solve these are the LP duals; for an infeasible one they are the
    phase-1 duals, i.e. a Farkas certificate (y.A <= 0 on variables at their
    lower bound zero, y.b > 0).  ``iterations`` is the total over both
    phases; ``meta`` holds the ``phase1_iterations`` and
    ``phase2_iterations`` and the ``bland_pivots`` priced by the fallback.
    ``basis`` of the result is the final basis, as column indices of A with
    n + i standing for row i's artificial.

    ``basis`` of the call, m column indices of A, starts phase 2 there when
    it is a nonsingular basis that is primal feasible with every nonbasic
    variable at its lower bound (``phase1_iterations`` is then 0); otherwise
    it is ignored.  Status 'singular' means a refactor found the basis
    singular; like 'maxiter', it decides nothing.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    b = np.asarray(b, dtype=float).reshape(m)
    c = np.asarray(c, dtype=float).reshape(n)
    l = np.zeros(n) if lower is None else np.asarray(lower, dtype=float).reshape(n)
    u = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float).reshape(n)
    for name, v in (("c", c), ("A", A), ("b", b), ("lower bounds", l)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite")
    if np.isnan(u).any():
        raise ValueError("upper bounds must not be NaN")
    if np.any(u < l):
        raise ValueError("upper bound below lower bound")
    max_iter = 200 * (n + m + 10)
    feas_tol = FEAS_TOL * max(1.0, float(np.abs(b).max(initial=0.0)))

    tab = None if basis is None else _warm_tableau(c, A, b, l, u, basis,
                                                   feas_tol)
    st, it1, phase1 = 'feasible', 0, 0.0
    if tab is None:
        # start all structural variables at their lower bound, the
        # artificials basic with the +-I inverse
        r = b - A @ l
        D = np.diag(np.where(r >= 0, 1.0, -1.0))
        A1 = np.hstack([A, D])
        l1 = np.concatenate([l, np.zeros(m)])
        u1 = np.concatenate([u, np.full(m, np.inf)])
        c1 = np.concatenate([np.zeros(n), np.ones(m)])
        x1 = np.concatenate([l, np.abs(r)])
        tab = _Tableau(A1, c1, l1, u1, np.arange(n, n + m),
                       np.repeat([-1.0, 0.0], [n, m]), x1, D)
        st, it1 = tab.iterate(FEAS_TOL, max_iter)
        phase1 = float(c1 @ tab.x)
        if st not in ('maxiter', 'singular'):
            st = 'infeasible' if phase1 > feas_tol else 'feasible'
        if st == 'feasible':
            # phase 2: freeze the artificials at zero via zero-width bounds
            tab.u[n:] = 0.0
            tab.x[n:] = 0.0
            tab.c = np.concatenate([c, np.zeros(m)])
            tab.sign[n:][tab.sign[n:] > 0.0] = -1.0
    x = obj = y = None
    it2 = 0
    if st == 'infeasible':
        y = tab.duals()
    elif st == 'feasible':
        st, it2 = tab.iterate(FEAS_TOL, max_iter)
        x = tab.x[:n].copy()
        obj = float(c @ x)
        if st == 'optimal':
            y = tab.duals()
    return LPResult(st, x=x, obj=obj, y=y, phase1_obj=phase1,
                    iterations=it1 + it2,
                    meta={"phase1_iterations": it1, "phase2_iterations": it2,
                          "bland_pivots": tab.bland_pivots},
                    basis=tab.basis.copy())
