"""Per-layer tracing from outside the library.

install() wraps public functions of the calibr modules and rebinds each
wrapper in every calibr module (and the workloads module) that holds the
original under some name, so `from .grassmann import comass` in cones,
hessian and acceptance is traced too.  Methods are wrapped on their class.

Every wrapped call opens a span on a stack; a span's self time is its
duration minus the time of the wrapped calls made inside it.  Spans are kept
in memory and written out at the end of the run.  The three hot leaves
(value_and_grad, Polynomial.__call__, pairing) are kept as per-parent
aggregates (count and total time) instead of one span each.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.stack = []       # open spans: [id, name, t0, child seconds]
        self.spans = []       # closed spans: (id, parent, name, phase, t0, t1)
        self.leaves = defaultdict(lambda: [0, 0.0])   # (parent, name) -> n, s
        self.counters = {}    # phase -> {raw counter: value}
        self.next_id = 0
        self.set_phase("setup")

    def set_phase(self, phase):
        self.phase = phase
        self.cur = self.counters.setdefault(phase, defaultdict(float))

    def open(self, name):
        self.next_id += 1
        self.stack.append([self.next_id, name, perf(), 0.0])

    def close(self, aggregate=False):
        t1 = perf()
        sid, name, t0, child = self.stack.pop()
        dur = t1 - t0
        cur = self.cur
        cur[name + ".calls"] += 1
        cur[name + ".self_s"] += dur - child
        parent = None
        if self.stack:
            top = self.stack[-1]
            top[3] += dur
            parent = top[0]
        if aggregate:
            leaf = self.leaves[(parent, name)]
            leaf[0] += 1
            leaf[1] += dur
        else:
            self.spans.append((sid, parent, name, self.phase, t0, t1))

    def add(self, counter, value):
        self.cur[counter] += value

    def maximum(self, counter, value):
        self.cur[counter] = max(self.cur[counter], value)

    def dump(self, path, **header):
        with gzip.open(path, "wt") as fh:
            json.dump({**header,
                       "spans": [list(s) for s in self.spans],
                       "leaves": [[p, n, c, t] for (p, n), (c, t)
                                  in self.leaves.items()]}, fh)


# ---------------------------------------------------------------------------
# observers: counts read from returned results
# ---------------------------------------------------------------------------

def _comass(tr, res, bound):
    tr.add("grassmann.comass.converged", res.converged)
    tr.add("grassmann.comass.starts", res.multistarts)
    tr.add("grassmann.comass.saturated", res.saturated)


def _sample(tr, res, bound):
    tr.add("grassmann.sample.kept", len(res))
    tr.add("grassmann.sample.attempts", res.multistart_count)


def _normality(tr, rep, bound):
    tr.add("hessian.normality.degenerate", rep.degenerate)
    tr.add("hessian.normality.trials", rep.trials)


def _mass_norm(tr, out, bound):
    upper, lower, meta = out
    tr.add("cones.mass_norm.rounds", meta["rounds"])
    tr.add("cones.mass_norm.cap_hits",
           meta["rounds"] == bound.arguments["max_rounds"])
    tr.maximum("cones.mass_norm.gap_max", (upper - lower) / upper)


def _lp(tr, res, bound):
    tr.add("lp.solve.iterations", res.iterations)
    tr.add("lp.solve.infeasible", res.status == "infeasible")
    tr.add("lp.solve.maxiter", res.status == "maxiter")


def _alternative(tr, res, bound):
    tr.add("duality.alternatives", 1)
    tr.add("duality.consistent", res.consistent)
    tr.add("duality.ties", res.boundary_tie)


def _green(tr, res, bound):
    tr.add("currents.green_check.triangles", len(bound.arguments["M"].simplices))


# (module, attribute path, layer name, aggregate, observer)
TARGETS = [
    ("grassmann", "FormEvaluator.value_and_grad", "grassmann.value_and_grad",
     True, None),
    ("grassmann", "comass", "grassmann.comass", False, _comass),
    ("grassmann", "sample_grassmannian", "grassmann.sample", False, _sample),
    ("grassmann", "pullback", "grassmann.pullback", False, None),
    ("grassmann", "constrained_extremum", "grassmann.constrained_extremum",
     False, None),
    ("grassmann", "polish_plane", "grassmann.polish_plane", False, None),
    ("hessian", "normality_check", "hessian.normality", False, _normality),
    ("cones", "mass_norm_estimate", "cones.mass_norm", False, _mass_norm),
    ("cones", "positivity_classify", "cones.positivity", False, None),
    ("cones", "cone_membership", "cones.membership", False, None),
    ("cones", "nnls", "cones.nnls", False, None),
    ("lp", "solve_lp", "lp.solve", False, _lp),
    ("duality", "assemble_boundary_model", "duality.assemble_boundary",
     False, None),
    ("duality", "assemble_jensen_model", "duality.assemble_jensen",
     False, None),
    ("duality", "boundary_alternative", "duality.boundary_alternative",
     False, _alternative),
    ("duality", "jensen_alternative", "duality.jensen_alternative",
     False, _alternative),
    ("polynomial", "Polynomial.__call__", "polynomial.call", True, None),
    ("polynomial", "Polynomial.hessian_at", "polynomial.hessian_at",
     False, None),
    ("polynomial", "integrate_over_simplex", "polynomial.integrate_simplex",
     False, None),
    ("polynomial", "PolyForm.d", "polynomial.d", False, None),
    ("exterior", "derivation_extend", "exterior.derivation_extend",
     False, None),
    ("exterior", "pairing", "exterior.pairing", True, None),
    ("currents", "green_check", "currents.green_check", False, _green),
    ("currents", "cotan_laplacian", "currents.cotan_laplacian", False, None),
    ("currents", "calibration_gap", "currents.calibration_gap", False, None),
    ("currents", "evaluate", "currents.evaluate", False, None),
    ("currents", "disc_mesh", "currents.disc_mesh", False, None),
    ("calibrations", "catalogue", "calibrations.catalogue", False, None),
]


def _wrap(tr, fn, name, aggregate, observer):
    sig = inspect.signature(fn) if observer else None

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        tr.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.close(aggregate)
        if observer is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            observer(tr, out, bound)
        return out
    return wrapped


def install(tr, extra_modules=()):
    """Wrap every TARGETS entry for the rest of the process."""
    import calibr.exterior
    namespaces = [m for name, m in list(sys.modules.items())
                  if name == "calibr" or name.startswith("calibr.")]
    namespaces += list(extra_modules)
    for mod_name, path, name, aggregate, observer in TARGETS:
        mod = sys.modules[f"calibr.{mod_name}"]
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            orig = owner.__dict__[attr]
            setattr(owner, attr, _wrap(tr, orig, name, aggregate, observer))
            continue
        orig = getattr(mod, attr)
        wrapped = _wrap(tr, orig, name, aggregate, observer)
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if val is orig:
                    setattr(ns, key, wrapped)

    # ExteriorElement constructions: a bare counter, no span
    cls = calibr.exterior.ExteriorElement
    init = cls.__init__

    @functools.wraps(init)
    def counted_init(self, *args, **kwargs):
        tr.cur["exterior.element.created"] += 1
        init(self, *args, **kwargs)
    cls.__init__ = counted_init


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num, den):
    return lambda c: c[num] / c[den] if c[den] else 0.0


def _raw(key):
    return lambda c: c[key]


PER_LAYER = []   # (metric name, unit, function of the raw counters)
for _layer in ("grassmann.value_and_grad", "grassmann.comass",
               "grassmann.sample", "grassmann.pullback",
               "grassmann.constrained_extremum", "grassmann.polish_plane",
               "hessian.normality", "cones.mass_norm", "cones.nnls",
               "lp.solve", "duality.assemble_boundary",
               "duality.assemble_jensen", "polynomial.call",
               "polynomial.hessian_at", "polynomial.integrate_simplex",
               "polynomial.d", "exterior.derivation_extend",
               "exterior.pairing", "currents.green_check"):
    PER_LAYER.append((f"{_layer}.calls", "count", _raw(f"{_layer}.calls")))
    PER_LAYER.append((f"{_layer}.self_s", "s", _raw(f"{_layer}.self_s")))
for _layer in ("cones.positivity", "cones.membership",
               "duality.boundary_alternative", "duality.jensen_alternative",
               "currents.cotan_laplacian", "currents.calibration_gap",
               "currents.evaluate", "currents.disc_mesh",
               "calibrations.catalogue"):
    PER_LAYER.append((f"{_layer}.self_s", "s", _raw(f"{_layer}.self_s")))
PER_LAYER += [
    ("grassmann.comass.converged_ratio", "ratio",
     _ratio("grassmann.comass.converged", "grassmann.comass.starts")),
    ("grassmann.comass.saturated_ratio", "ratio",
     _ratio("grassmann.comass.saturated", "grassmann.comass.calls")),
    ("grassmann.sample.kept_ratio", "ratio",
     _ratio("grassmann.sample.kept", "grassmann.sample.attempts")),
    ("hessian.normality.degenerate_ratio", "ratio",
     _ratio("hessian.normality.degenerate", "hessian.normality.trials")),
    ("cones.mass_norm.rounds", "count", _raw("cones.mass_norm.rounds")),
    ("cones.mass_norm.cap_hits", "count", _raw("cones.mass_norm.cap_hits")),
    ("cones.mass_norm.gap_max", "ratio", _raw("cones.mass_norm.gap_max")),
    ("lp.solve.iterations", "count", _raw("lp.solve.iterations")),
    ("lp.solve.infeasible", "count", _raw("lp.solve.infeasible")),
    ("lp.solve.maxiter", "count", _raw("lp.solve.maxiter")),
    ("duality.consistent_ratio", "ratio",
     lambda c: (c["duality.consistent"]
                / (c["duality.alternatives"] - c["duality.ties"])
                if c["duality.alternatives"] > c["duality.ties"] else 0.0)),
    ("duality.ties", "count", _raw("duality.ties")),
    ("currents.green_check.triangles", "count",
     _raw("currents.green_check.triangles")),
    ("exterior.element.created", "count", _raw("exterior.element.created")),
]

COUNT_KEYS = ("calls", "iterations", "rounds", "cap_hits", "infeasible",
              "maxiter", "ties", "triangles", "created")


def _merge(into, counters, scale):
    for k, v in counters.items():
        if k.endswith("gap_max"):
            into[k] = max(into[k], v)
        else:
            into[k] += v * scale if k.endswith(".self_s") else v


def _pass_counters(tr, factors, p):
    out = defaultdict(float)
    for phase, f in factors.items():
        if phase != "setup" and phase[0] == p:
            _merge(out, tr.counters.get(phase, {}), f)
    return out


def layer_metrics(tr, factors, passes):
    """Per-layer values for one set-up plus one pass of the job list: the
    set-up counters plus the median over the complete passes.

    Counters are kept per phase ("setup" or (pass, job)); factors maps each
    phase to the host-speed scale applied to its self times.
    """
    per_pass = [_pass_counters(tr, factors, p) for p in passes]
    raw = defaultdict(float)
    _merge(raw, tr.counters.get("setup", {}), factors["setup"])
    for k in set().union(*per_pass):
        med = statistics.median(c[k] for c in per_pass)
        _merge(raw, {k: med}, 1.0)
    return {name: {"value": float(fn(raw)), "unit": unit}
            for name, unit, fn in PER_LAYER}


def pass_counts(tr, factors, p):
    """The exact count-valued counters of one pass, for repeat checks."""
    return {k: v for k, v in sorted(_pass_counters(tr, factors, p).items())
            if k.rpartition(".")[2] in COUNT_KEYS}
