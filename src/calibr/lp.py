"""Bounded-variable revised primal simplex: Dantzig pricing, Bland fallback.

Solves  min c.x  subject to  A x = b,  l <= x <= u  (l finite, u may be inf).

The basis inverse is refactored every 64 pivots and at the end of each
phase, and updated by a rank-one (eta) step after each basis change.  The
entering variable has the largest reduced-cost violation (Dantzig), ties to
the lowest index.  The duality models produce degenerate pivots; after one,
pricing falls back to Bland's smallest eligible index until a pivot makes
progress, so a degenerate cycle could only go on under Bland's rule, which
does not cycle (Bland 1977; Chvatal, Linear Programming, ch. 3).  On
infeasible problems the phase-1 duals are the Farkas certificate used by
the alternative theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-9
_L, _U, _B = 0, 1, 2        # variable status: at lower, at upper, basic
_PRICE_SIGN = np.array([-1.0, 1.0, 0.0])    # reduced cost to violation


@dataclass
class LPResult:
    status: str                 # optimal | infeasible | unbounded | maxiter
    x: np.ndarray | None = None
    obj: float | None = None
    y: np.ndarray | None = None          # row multipliers of the final phase
    phase1_obj: float = 0.0
    iterations: int = 0
    meta: dict = field(default_factory=dict)


class _Tableau:
    def __init__(self, A, c, l, u, basis, status, x):
        self.A, self.c, self.l, self.u = A, c, l, u
        self.basis = basis          # int array of variable indices, length m
        self.status = status        # int8 array of _L, _U, _B per variable
        self.x = x
        self.b = A @ x              # fixed right-hand side
        self.Binv = np.linalg.inv(A[:, basis])
        self.bland_pivots = 0

    def duals(self):
        return self.c[self.basis] @ self.Binv

    def _refresh_basics(self):
        """Refactor the basis inverse and recompute the basic values from
        the nonbasic bounds (drift control)."""
        at_l, at_u = self.status == _L, self.status == _U
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
            violation = _PRICE_SIGN[self.status] * z
            eligible = violation > tol
            if not eligible.any():
                self._refresh_basics()
                return 'optimal', it
            # argmax returns the first maximum: the smallest eligible index
            # under Bland, the lowest index among tied violations otherwise
            entering = int(np.argmax(eligible if bland else violation))
            self.bland_pivots += bland
            direction = 1.0 if self.status[entering] == _L else -1.0
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
                to_upper = self.status[entering] == _L
                self.status[entering] = _U if to_upper else _L
                self.x[entering] = (self.u if to_upper else self.l)[entering]
            else:
                out = self.basis[leave]
                hits_lower = d[leave] > 0.0
                self.x[out] = (self.l if hits_lower else self.u)[out]
                self.status[out] = _L if hits_lower else _U
                self.basis[leave] = entering
                self.status[entering] = _B
                # eta update: the new inverse maps the entering column to
                # the unit vector of the pivot row
                pivot_row = self.Binv[leave] / alpha[leave]
                self.Binv -= alpha[:, None] * pivot_row
                self.Binv[leave] = pivot_row
        return 'maxiter', it


def solve_lp(c, A, b, lower=None, upper=None, tol=FEAS_TOL, max_iter=None):
    """Two-phase bounded-variable primal simplex.

    Returns an LPResult.  ``y`` holds the equality-row multipliers: for an
    optimal solve these are the LP duals; for an infeasible one they are the
    phase-1 duals, i.e. a Farkas certificate (y.A <= 0 on variables at their
    lower bound zero, y.b > 0).  ``iterations`` is the total over both
    phases; ``meta`` holds the ``phase1_iterations`` and
    ``phase2_iterations`` and the ``bland_pivots`` priced by the fallback.
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
    r = b - A @ l
    A1 = np.hstack([A, np.diag(np.where(r >= 0, 1.0, -1.0))])
    l1 = np.concatenate([l, np.zeros(m)])
    u1 = np.concatenate([u, np.full(m, np.inf)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    x1 = np.concatenate([l, np.abs(r)])
    status = np.repeat(np.array([_L, _B], dtype=np.int8), [n, m])
    tab = _Tableau(A1, c1, l1, u1, np.arange(n, n + m), status, x1)
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
        tab.status[n:][tab.status[n:] != _B] = _L
        st, it2 = tab.iterate(tol, max_iter)
        x = tab.x[:n].copy()
        obj = float(c @ x)
        if st == 'optimal':
            y = tab.duals()
    return LPResult(st, x=x, obj=obj, y=y, phase1_obj=phase1,
                    iterations=it1 + it2,
                    meta={"phase1_iterations": it1, "phase2_iterations": it2,
                          "bland_pivots": tab.bland_pivots})
