"""Contention-corrected clock for timing on a shared vCPU.

On a small shared host the speed of a vCPU swings by up to 2x, in phases of
a fraction of a second to tens of seconds, as other tenants load the same
physical core; two vCPUs of one guest swing independently.  A cold
repetition of 10-30 s then reads anywhere in a +-30% band, whatever the
program does, and a vCPU that runs beside the timed process cannot tell how
fast the timed process ran.

``SpeedProbe`` measures the speed of the vCPU the timed process runs on, at
the time it runs: a SIGALRM timer interrupts the process every
``INTERVAL_S`` and the handler times ``probe_kernel``, a fixed pure-Python
kernel that owes nothing to the package.  Consecutive probes are grouped in
windows of ``WINDOW``; a second of wall time inside a window counts as
``REFERENCE_PROBE_S / mean probe time of the window`` reference seconds.
``ref_clock`` maps a ``time.perf_counter`` reading to reference seconds, so
an interval timed on it is the wall time the process would have taken at
the reference speed.  A change to the program moves it as it moves the wall
time; a neighbour that halves the vCPU's speed for a while does not.  The
probes cost about 1.5% of the run, the same on every commit.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.01
WINDOW = 4
# About the probe kernel's time on an uncontended vCPU of a 2.1 GHz Xeon under
# CPython 3.11.  It only fixes the scale of reference seconds.
REFERENCE_PROBE_S = 140e-6

_M = 10 ** 40 + 121
_B1 = 3 ** 1300 + 17
_B2 = 7 ** 700 + 3


def probe_kernel() -> int:
    """Fixed work in the package's mix: bytecode dispatch, Fraction and small
    int arithmetic, small containers and products of 2000-bit integers."""
    x, y, d = Fraction(1, 3), 7 ** 60, {}
    for i in range(12):
        x = x * Fraction(i + 2, i + 1) - Fraction(1, 7)
        y = (y * 1103515245 + i) % _M
        d[i & 3] = [y, i]
    z = _B1
    for i in range(6):
        z = (z * _B1 + i) % _B2
    return x.denominator + y + z + len(d)


class SpeedProbe:
    def __init__(self):
        self.ends: list = []        # perf_counter at the end of each probe
        self.times: list = []       # duration of each probe
        self.started = None
        self._prev = None

    def _tick(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()                # a collection is the program's cost, not the probe's
        t = time.perf_counter()
        probe_kernel()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.ends.append(end)
        self.times.append(end - t)

    def start(self) -> None:
        self._prev = signal.signal(signal.SIGALRM, self._tick)
        self.started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._prev if self._prev is not None
                      else signal.SIG_DFL)

    def ref_clock(self):
        """A function from a perf_counter reading to reference seconds since
        ``start``, built from the probes taken so far.  Before the first and
        after the last window it extrapolates at the nearest window's speed."""
        n = len(self.times)
        bounds, slopes = [self.started], []
        for k in range(0, n, WINDOW):
            chunk = self.times[k:min(k + WINDOW, n)]
            bounds.append(self.ends[k + len(chunk) - 1])
            slopes.append(REFERENCE_PROBE_S * len(chunk) / sum(chunk))
        if not slopes:
            slopes.append(1.0)      # no probe yet: plain seconds
        ref = [0.0]
        for j in range(len(bounds) - 1):
            ref.append(ref[j] + (bounds[j + 1] - bounds[j]) * slopes[j])
        last = len(slopes) - 1

        def clock(t: float) -> float:
            j = min(max(bisect.bisect_right(bounds, t) - 1, 0), last)
            return ref[j] + (t - bounds[j]) * slopes[j]
        return clock
