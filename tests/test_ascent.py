"""The batched Stiefel-ascent engine against two references kept here: the
one-start-at-a-time loop it replaced, and its own projected-gradient form
from before it took Newton steps."""

import numpy as np
import pytest

from calibr.acceptance import COMASS_ENTRIES
from calibr.calibrations import CATALOGUE_SPECS, catalogue
from calibr.exterior import (ExteriorElement, SimplePlane, angular_distance,
                             lex_indices)
from calibr.grassmann import (DEFAULT_GTOL, DEDUP_ANGLE, FormEvaluator,
                              _ascend_batch, _ascent_source, _capped,
                              _collect_planes, _fnorm, _is_duplicate,
                              _random_frames, _retract, _tangent, comass,
                              constrained_extremum, random_frame, rng_stream,
                              sample_grassmannian)


def ref_retract(U):
    p = U.shape[1]
    if p <= 3:
        Q = U.copy()
        for k in range(p):
            v = Q[:, k]
            for j in range(k):
                v = v - (Q[:, j] @ v) * Q[:, j]
            Q[:, k] = v / np.sqrt(v @ v)
        return Q
    q, r = np.linalg.qr(U)
    return q * np.sign(np.diag(r))[None, :]


def ref_tangent(U, G):
    UtG = U.T @ G
    return G - U @ ((UtG + UtG.T) / 2.0)


def ref_ascend(value_and_grad, U, gtol=DEFAULT_GTOL, max_iter=600, step0=0.2):
    """Single-frame projected-gradient ascent: the reference loop."""
    f, G = value_and_grad(U)
    step = step0
    it = 0
    while it < max_iter:
        it += 1
        T = ref_tangent(U, G)
        gnorm = float(np.sqrt((T * T).sum()))
        if gnorm <= gtol:
            return U, f, gnorm, it
        accepted = False
        for _ in range(50):
            if step * gnorm * gnorm < 1e-13 * max(1.0, abs(f)):
                break
            U_new = ref_retract(U + step * T)
            f_new, G_new = value_and_grad(U_new)
            if f_new >= f + 1e-4 * step * gnorm * gnorm:
                U, f, G = U_new, f_new, G_new
                step = min(step * 1.8, 4.0)
                accepted = True
                break
            step *= 0.4
        if not accepted:
            break
    T = ref_tangent(U, G)
    gnorm = float(np.sqrt((T * T).sum()))
    step = max(step, 1e-3)
    while it < max_iter and gnorm > gtol and step > 1e-8:
        it += 1
        U_new = ref_retract(U + step * T)
        f_new, G_new = value_and_grad(U_new)
        T_new = ref_tangent(U_new, G_new)
        g_new = float(np.sqrt((T_new * T_new).sum()))
        if g_new < gnorm:
            U, f, G, T, gnorm = U_new, f_new, G_new, T_new, g_new
        else:
            step *= 0.5
    return U, f, gnorm, it


def ref_ascend_batch(value_and_grad, U, gtol=DEFAULT_GTOL, max_iter=600,
                     step0=0.2):
    """The engine before its Newton steps: projected-gradient ascent with
    backtracking from every frame of an (S, n, p) stack; returns per-start
    arrays (U, f, gnorm, iters).

    value_and_grad maps an (S', n, p) stack to ((S',) values, gradients).
    Every start runs its own line search, with its own step, backtracking
    count, stage and iteration cap; each round evaluates one trial frame for
    every start still running, in one call on the stack of trials, and a
    start that finishes leaves the stack.  Near a maximizer the Armijo test
    drowns in floating-point rounding, so a second stage drives the
    tangent-gradient norm down directly.
    """
    U = np.array(U, dtype=float)
    S = len(U)
    out = (np.empty_like(U), np.empty(S), np.empty(S), np.empty(S, int))
    idx = np.arange(S)
    f, G = value_and_grad(U)
    T = _tangent(U, G)
    g = _fnorm(T)
    step = np.full(S, float(step0))
    it = np.zeros(S, int)
    backtracks = np.zeros(S, int)   # rejected trials in this outer iteration
    stage2 = np.zeros(S, bool)
    accept = np.ones(S, bool)       # the first outer iteration starts now
    while len(idx):
        # settle what needs no evaluation: an accepted stage-1 start begins
        # an outer iteration or stops; a stage-1 start whose improvement
        # would be below rounding, or that ran out of backtracking, enters
        # stage 2; a stage-2 start continues or stops.  In the common round
        # none of this happens and accepted starts just count an iteration.
        tiny = step * g * g < 1e-13 * np.maximum(1.0, np.abs(f))
        if not np.count_nonzero(stage2 | tiny | (g <= gtol)
                                | (it >= max_iter) | (backtracks >= 50)):
            it += accept
        else:
            outer = accept & ~stage2
            go = outer & (it < max_iter)
            it += go
            done = go & (g <= gtol)
            enter2 = (outer & ~go) | (backtracks >= 50) | (
                tiny & ~(stage2 | done))
            step = np.where(enter2, np.maximum(step, 1e-3), step)
            stage2 = stage2 | enter2
            more = stage2 & (it < max_iter) & (g > gtol) & (step > 1e-8)
            it += more
            done |= stage2 & ~more
            if np.count_nonzero(done):
                for o, a in zip(out, (U, f, g, it)):
                    o[idx[done]] = a[done]
                live = ~done
                idx, U, f, G, T, g, step, it, backtracks, stage2 = (
                    a[live] for a in (idx, U, f, G, T, g, step, it,
                                      backtracks, stage2))
                if not len(idx):
                    break
        # one trial per running start
        U_try = _retract(U + step[:, None, None] * T)
        f_try, G_try = value_and_grad(U_try)
        T_try = _tangent(U_try, G_try)
        g_try = _fnorm(T_try)
        accept = f_try >= f + 1e-4 * step * g * g
        step_next = np.where(accept, np.minimum(step * 1.8, 4.0), step * 0.4)
        if np.count_nonzero(stage2):
            accept = np.where(stage2, g_try < g, accept)
            step_next = np.where(stage2, np.where(accept, step, step * 0.5),
                                 step_next)
        step = step_next
        backtracks = np.where(accept | stage2, 0, backtracks + 1)
        accepted = np.count_nonzero(accept)
        if accepted == len(accept):
            U, G, T, f, g = U_try, G_try, T_try, f_try, g_try
        elif accepted:
            a3 = accept[:, None, None]
            U = np.where(a3, U_try, U)
            G = np.where(a3, G_try, G)
            T = np.where(a3, T_try, T)
            f = np.where(accept, f_try, f)
            g = np.where(accept, g_try, g)
    return out


def ref_is_duplicate(plane, kept, dedup_angle):
    """One angular_distance per kept plane."""
    for other in kept:
        theta, oriented = angular_distance(plane, other)
        if oriented and theta <= dedup_angle:
            return True
    return False


def ref_sample(cal, tol=1e-6, count=50, seed=0, gtol=DEFAULT_GTOL,
               max_iter=600):
    """One start at a time, deduplicated as it goes."""
    ev = FormEvaluator(cal.form)
    kept, values, attempts = [], [], 0
    for k in range(max(8 * count, 160)):
        attempts += 1
        U, f, _, _ = ref_ascend(ev.value_and_grad,
                                random_frame(ev.n, ev.p, rng_stream(seed, k)),
                                gtol=gtol, max_iter=max_iter)
        if f < cal.claimed_comass - tol:
            continue
        plane = SimplePlane(U.T)
        if ref_is_duplicate(plane, kept, DEDUP_ANGLE):
            continue
        kept.append(plane)
        values.append(f)
        if len(kept) >= count:
            break
    return kept, values, attempts


def starts(n, p, count, seed=0):
    return np.array([random_frame(n, p, rng_stream(seed, k))
                     for k in range(count)])


class Objective:
    """value_and_grad and hessian of an ascent objective, as the engine
    takes them from a FormEvaluator."""

    def __init__(self, value_and_grad, hessian):
        self.value_and_grad, self.hessian = value_and_grad, hessian


def no_newton(value_and_grad):
    """An objective whose Hessian is positive definite everywhere, so the
    engine never takes a Newton step and runs as its reference does."""
    def hessian(U, Q):
        k = U.shape[2] * Q.shape[2]
        return np.broadcast_to(np.eye(k), (len(U), k, k))
    return Objective(value_and_grad, hessian)


def check_against_reference(ev, U0, step0, max_iter, gtol=DEFAULT_GTOL,
                            same_steps=False):
    """ev has value_and_grad, taking one frame or a stack as
    FormEvaluator.value_and_grad does, and hessian."""
    vg = ev.value_and_grad
    conv = max(gtol, 1e-9)
    ref = [ref_ascend(vg, U.copy(), gtol=gtol, max_iter=max_iter,
                      step0=step0) for U in U0]
    ref_f = np.array([r[1] for r in ref])
    ref_ok = np.array([r[2] <= conv for r in ref])
    ref_it = np.array([r[3] for r in ref])
    stacked = {}
    for size in (1, 7, len(U0)):
        # the batched reference does the loop's floating-point operations,
        # so every start takes the same steps, stage switch included
        _, f, g, it = ref_ascend_batch(vg, U0[:size], gtol=gtol,
                                       max_iter=max_iter, step0=step0)
        assert np.abs(f - ref_f[:size]).max() < 1e-12
        assert np.array_equal(g <= conv, ref_ok[:size])
        assert np.array_equal(it, ref_it[:size])
        # the engine's Newton steps change the path, not the maximizer: a
        # start converges where the reference does, to the same value; a
        # start the reference left at max_iter stops wherever its own path
        # has got to by then
        _, f, g, it = _ascend_batch(ev, U0[:size], gtol=gtol,
                                    max_iter=max_iter, step0=step0)
        ran_out = (ref_it[:size] >= max_iter) & ~ref_ok[:size]
        assert np.all((g <= conv) | ~ref_ok[:size])
        assert np.abs(f - ref_f[:size])[~ran_out].max(initial=0.0) < 1e-10
        assert it.max() <= max_iter
        assert it.sum() <= ref_it[:size].sum()
        if same_steps:
            assert np.abs(f - ref_f[:size]).max() < 1e-12
            assert np.array_equal(it, ref_it[:size])
        stacked[size] = f
    # a start gives the same result alone as inside the stack
    for k in (0, len(U0) // 2, len(U0) - 1):
        _, f, _, _ = _ascend_batch(ev, U0[k:k + 1], gtol=gtol,
                                   max_iter=max_iter, step0=step0)
        assert abs(f[0] - stacked[len(U0)][k]) < 1e-12


class TestEngineAgainstLoop:
    @pytest.mark.parametrize("name,params", CATALOGUE_SPECS)
    @pytest.mark.parametrize("step0", [0.2, 0.05])
    @pytest.mark.parametrize("max_iter", [3, 600])
    def test_catalogue(self, name, params, step0, max_iter):
        cal = catalogue(name, *params)
        ev = FormEvaluator(cal.form)
        check_against_reference(ev, starts(cal.n, cal.p, 60), step0, max_iter)
        if max_iter == 3:
            # with Newton steps off, the capped starts stop where the
            # reference's do
            check_against_reference(no_newton(ev.value_and_grad),
                                    starts(cal.n, cal.p, 60), step0, max_iter,
                                    same_steps=True)

    @pytest.mark.parametrize("name,params", [("kaehler", (2, 1)),
                                             ("associative", ()),
                                             ("cayley", ())])
    def test_rounding_floor(self, name, params):
        # with gtol = 0 no start converges: each ends when its stage-2 step
        # underflows, so the stage switch and the step floors are exercised
        cal = catalogue(name, *params)
        check_against_reference(FormEvaluator(cal.form),
                                starts(cal.n, cal.p, 60), 0.2, 600, gtol=0.0)

    @pytest.mark.parametrize("scale", [1.0, 1e9])
    def test_downhill_gradient(self, scale):
        # a gradient of the wrong sign fails every Armijo test, so each start
        # backtracks until its step is below rounding (scale 1) or runs out
        # of backtracking (scale 1e9), and enters stage 2 through the step
        # floor; with no Newton step the engine takes the reference's steps
        cal = catalogue("associative")
        ev = FormEvaluator(cal.form)

        def vg(U):
            f, G = ev.value_and_grad(U)
            return scale * f, -scale * G

        check_against_reference(no_newton(vg), starts(cal.n, cal.p, 60), 0.2,
                                600, same_steps=True)

    @pytest.mark.parametrize("name,params", [("kaehler", (2, 1)),
                                             ("associative", ())])
    @pytest.mark.parametrize("max_iter", [3, 250])
    def test_penalty_closure(self, name, params, max_iter):
        # a stiff penalty objective, sgn * alpha + rho (phi - 1)
        cal = catalogue(name, *params)
        rng = np.random.default_rng(11)
        alpha = ExteriorElement(cal.n, cal.p, {
            idx: rng.standard_normal() for idx in lex_indices(cal.n, cal.p)})
        ev_a, ev_phi = FormEvaluator(alpha), FormEvaluator(cal.form)
        sgn, rho = -1.0, 1e3

        def vg(U):
            fa, Ga = ev_a.value_and_grad(U)
            fp, Gp = ev_phi.value_and_grad(U)
            return sgn * fa + rho * (fp - 1.0), sgn * Ga + rho * Gp

        def hessian(U, Q):
            return sgn * ev_a.hessian(U, Q) + rho * ev_phi.hessian(U, Q)

        check_against_reference(Objective(vg, hessian),
                                starts(cal.n, cal.p, 60, seed=3), 0.2,
                                max_iter, gtol=1e-11)

    def test_value_and_grad_stack(self):
        cal = catalogue("cayley")
        ev = FormEvaluator(cal.form)
        U = starts(8, 4, 5)
        f, G = ev.value_and_grad(U)
        for k in range(5):
            fk, Gk = ev.value_and_grad(U[k])
            assert isinstance(fk, float) and Gk.shape == (8, 4)
            assert abs(fk - ev.value(U[k])) < 1e-13
            assert f[k] == fk and np.array_equal(G[k], Gk)


class TestSamplingAgainstLoop:
    @pytest.mark.parametrize("name,params", COMASS_ENTRIES)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_planes_and_attempts(self, name, params, seed):
        cal = catalogue(name, *params)
        ss = _collect_planes(cal, _ascent_source(cal, seed), 1e-6, 8)
        kept, values, attempts = ref_sample(cal, count=8, seed=seed)
        assert ss.multistart_count == attempts
        assert len(ss) == len(kept)
        # the same planes: frames may differ by a rotation inside the plane,
        # as the Newton steps take another path to it
        ref = np.array([b.pvector().to_coeff_vector() for b in kept])
        assert np.abs(ss.pvectors() - ref).max() < 1e-10
        assert np.abs(np.array(ss.values) - values).max() < 1e-12


class TestBatchedDuplicate:
    @pytest.mark.parametrize("n,p", [(4, 1), (4, 2), (6, 3), (7, 4), (8, 4),
                                     (4, 4)])
    def test_matches_pairwise_loop(self, n, p):
        rng = rng_stream(11, n, p)
        kept = np.array([random_frame(n, p, rng) for _ in range(6)])
        reverse = np.ones(p)
        reverse[0] = -1.0
        cands = [random_frame(n, p, rng)]
        for V in kept:
            cands.append(V * reverse)
            for eps in (1e-4, 1e-2):
                q, r = np.linalg.qr(V + eps * rng.standard_normal((n, p)))
                near = q * np.sign(np.diag(r))[None, :]
                cands += [near, near * reverse]
        seen = set()
        for U in cands:
            for k in range(len(kept) + 1):
                want = ref_is_duplicate(SimplePlane(U.T),
                                        [SimplePlane(V.T) for V in kept[:k]],
                                        DEDUP_ANGLE)
                assert _is_duplicate(U, kept[:k], DEDUP_ANGLE) == want
                seen.add(want)
        assert seen == {True, False}


class TestSurfacedCaps:
    def test_comass_capped(self):
        # the Cayley form is exact; the split volume form of R^8 runs the
        # ascent (perturbing the Cayley form off its Spin(7) identity leaves
        # maximizers so flat that starts cap at 600 iterations)
        cayley = catalogue("cayley").form
        phi = (ExteriorElement.basis(8, (1, 2, 3, 4))
               + ExteriorElement.basis(8, (5, 6, 7, 8)))
        assert comass(phi, multistarts=6, max_iter=2).capped == 6
        assert comass(phi, multistarts=6).capped == 0
        assert comass(cayley).exact and comass(cayley).capped == 0
        assert comass(catalogue("kaehler", 2, 1).form).capped == 0  # exact

    @pytest.mark.parametrize("name,idx", [("cayley", (1, 2, 4, 6)),
                                          ("cayley", (1, 2, 3, 5)),
                                          ("associative", (1, 2, 4))])
    def test_near_structured_caps(self, name, idx):
        # a hair off a structured form the maximizers are nearly flat and
        # some starts still cap; the Newton steps must not add to them
        cal = catalogue(name)
        phi = cal.form + 1e-6 * ExteriorElement.basis(cal.n, idx)
        res = comass(phi, multistarts=6, seed=0)
        _, f, g, it = ref_ascend_batch(FormEvaluator(phi).value_and_grad,
                                       _random_frames(cal.n, cal.p, 0,
                                                      range(6)))
        assert not res.exact
        assert res.capped <= _capped(g, it, DEFAULT_GTOL, 600).sum()
        assert abs(res.value - f.max()) < 1e-10

    def test_sample_capped(self):
        cal = catalogue("associative")
        assert _collect_planes(cal, _ascent_source(cal, 0), 1e-6,
                               3).capped == 0
        ss = _collect_planes(cal, _ascent_source(cal, 0, max_iter=5), 1e-2,
                             3)
        assert ss.capped == ss.multistart_count == 3

    def test_volume_reversed_component_stranded(self):
        # on O(n) the ascent cannot leave the reversed component, so the
        # starts there are dropped, and counted
        cal = catalogue("volume", 3)
        ss = sample_grassmannian(cal, count=4, seed=2)
        res = constrained_extremum(cal.form, cal, ss, "min", extra_starts=6)
        assert abs(res.value - 1.0) < 1e-9
        assert res.stranded > 0

    def test_nothing_stranded_on_connected_grassmannian(self):
        cal = catalogue("kaehler", 2, 1)
        ss = sample_grassmannian(cal, count=20, seed=4)
        res = constrained_extremum(cal.form, cal, ss, "min", starts_limit=8)
        assert res.stranded == 0
