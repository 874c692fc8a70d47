"""A fixed probe of machine speed, sampled while the operations run.

On a small VM shared with other tenants (the 2-core Xeon VM the bounds
were set on) the speed of a core drifts by tens of percent over seconds
to minutes.  The probe is a
fixed piece of work that uses none of the program: interpreter-bound
float arithmetic, numpy calls on scalars, QUADPACK integrals of a Python
callback (the largest part) and numpy arithmetic on a block of the size
the program's vectorized quadrature uses.  In that mix its time tracked
the program's best on interleaved runs of `causality` and `cold_local`
(README.md, Steadiness).

While a Sampler is active, a timer signal runs the probe every
INTERVAL_S of wall time, in this process and thread, between two
bytecodes of whatever is running.  Its time is taken out of the time of
the operation it interrupted, and a pass is scaled by REFERENCE_PROBE_S
over the mean probe time of that pass.  The samples are spread evenly in
time, so their mean follows the pass's average speed; their median does
not, as the slow spells are short and deep.  A drift that slows probe and
program alike cancels; a change to the program does not move the probe.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np
from scipy.integrate import quad

# mean probe time on the machine the bounds were set on (2-core Xeon
# VM at 2.1 GHz); scaled times read in seconds of that machine
REFERENCE_PROBE_S = 0.0020
INTERVAL_S = 0.05

_BLOCK = np.linspace(0.05, 5.0, 64 * 154).reshape(64, 154)


def _integrand(x):
    z = np.asarray(x) + 0.5j
    return float((1.0 / (z * z + 1.0)).real)


def _work():
    s = 0.0
    for i in range(1500):
        s += math.sqrt(i + 0.5) * 0.5
    for i in range(300):
        s += float(np.exp(-np.float64(i) * 0.01))
    for hi in (20.0, 30.0):
        s += quad(_integrand, 0.0, hi, limit=200)[0]
    x = _BLOCK
    for _ in range(6):
        x = np.sqrt(x * x + 1.0) * 0.5 + np.exp(-x)
    return s + float(x[0, 0])


def scaled(seconds, samples):
    """`seconds` at reference speed, the speed given by the probe samples."""
    return seconds * REFERENCE_PROBE_S / statistics.fmean(samples)


class Sampler:
    """Runs the probe every INTERVAL_S while active (a context manager).

    `samples` holds the probe times; `probe_s` is their running sum, so
    that a caller can take them out of an interval it times.
    """

    def __init__(self):
        self.samples = []
        self.probe_s = 0.0

    def tick(self, signum=None, frame=None):
        """Run the probe once now and record its time."""
        start = time.perf_counter()
        _work()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.probe_s += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
