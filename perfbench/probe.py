"""Host-speed probe, and timings normalised by it.

The hosts this benchmark runs on change speed by up to 2x, in phases that
last from under a second to minutes: the same deterministic job, repeated,
takes 0.6 s or 1.3 s, and CPU time tracks wall time, so it is the host and
not scheduling.  Raw seconds therefore spread far beyond any useful
regression bound.

The probe is a fixed loop of the kind of work the library does (interpreter
bound Python over small numpy arrays).  While a workload runs, a timer
signal samples it every PERIOD_S, and the time of each job is converted to
work done at the reference speed: its duration times the mean of
REFERENCE_S / probe over the samples taken during it.  The result is in
seconds at the host speed at which one probe iteration takes REFERENCE_S.
Sampling costs 1-2% of the run, the same on every commit.  Raw seconds
are reported next to the normalised ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 2.5e-6    # seconds per probe iteration at the reference speed
SAMPLE_ITERATIONS = 50
PERIOD_S = 0.01
WINDOW_S = 0.1          # intervals shorter than this borrow nearby samples

_A = np.linspace(-1.0, 1.0, 18).reshape(6, 3)


def host_probe(iterations=2000):
    """Seconds per iteration of a fixed interpreter and small-array loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(iterations):
        q = _A * (1.0 + i * 1e-6)
        acc += float(q[i % 6, i % 3]) + float(q[:, 0] @ q[:, 1])
    return (time.perf_counter() - t0) / iterations


class SpeedLog:
    """Host speed sampled from SIGALRM while a workload runs."""

    def __init__(self):
        self.times, self.speeds = [], []

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self.speeds.append(REFERENCE_S / host_probe(SAMPLE_ITERATIONS))
        self.times.append(t)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, t0, t1):
        """Mean host speed (1 = reference) over [t0, t1], widened to at
        least WINDOW_S, and further when no sample falls inside."""
        pad = max(0.0, (WINDOW_S - (t1 - t0)) / 2.0)
        for pad in (pad, pad + WINDOW_S, pad + 10 * WINDOW_S):
            lo = bisect.bisect_left(self.times, t0 - pad)
            hi = bisect.bisect_right(self.times, t1 + pad)
            if hi > lo:
                return statistics.fmean(self.speeds[lo:hi])
        raise RuntimeError("no host-speed sample near the interval")

    def median_speed(self):
        return statistics.median(self.speeds)
