"""In-process host-speed probe, used to express times at a fixed host speed.

On a shared host the speed of this process drifts by up to 2x over seconds,
which swamps the differences between commits.  `HostProbe` times a fixed
stdlib Fraction convolution (about 140 us) from a SIGALRM handler every 20 ms
of wall time, in the benchmark's own thread, so the probes interleave with
the work being measured.  `normalize(t0, t1)` turns a measured interval into
seconds at the reference speed:

    (t1 - t0 - probe time inside the interval) * mean(NOMINAL_S / probe time)

over the probes from 0.25 s before t0 up to t1.  Probes are spaced evenly in
wall time, so the mean of their speeds is the interval's mean speed, and work
done = wall time x mean speed.  For an interval spent in another process
(`own_process=False`) no probe time is subtracted.

The probe code is fixed, and it runs with the garbage collector off, so a
bellops change to collector settings does not reach it.  A bellops change
that acts on other interpreter-wide state the probe shares (patching
`fractions`, or a heap or cache footprint that slows every allocation) moves
the probe too and is partly divided out; `compare.py` flags runs where
normalized and wall-clock ratios between commits diverge.
"""

from __future__ import annotations

import gc
import signal
import statistics
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

# median probe duration on the host where the benchmark was defined
# (2 vCPU Intel Xeon at 2.0 GHz, Python 3.11.7); normalized times read as
# seconds on that host at its quiet speed
NOMINAL_S = 1.4e-4
INTERVAL_S = 0.02
LOOKBACK_S = 0.25
MIN_PROBES = 5

_A = (Fraction(-37, 41), Fraction(88, 9), Fraction(-5, 67), Fraction(71, 23),
      Fraction(13, 94), Fraction(-60, 7), Fraction(29, 31), Fraction(-3, 83))
_B = (Fraction(45, 52), Fraction(-19, 6), Fraction(97, 11), Fraction(-2, 39),
      Fraction(61, 74), Fraction(8, 85), Fraction(-77, 17), Fraction(50, 3))


def reference_convolution():
    """The fixed workload each probe times: an 8-term Fraction convolution."""
    out = []
    for k in range(8):
        acc = Fraction(0)
        for i in range(k + 1):
            acc += _A[i] * _B[k - i]
        out.append(acc)
    return out


class HostProbe:
    def __init__(self):
        self.at = array("d")  # probe start times, ascending
        self.took = array("d")  # probe durations

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        try:  # the tick may land deep in a recursion and raise there
            t0 = perf_counter()
            reference_convolution()
            self.took.append(perf_counter() - t0)
            self.at.append(t0)
        finally:
            if collecting:
                gc.enable()

    def median(self) -> float:
        return statistics.median(self.took) if self.took else float("nan")

    def normalize(self, t0: float, t1: float, own_process: bool = True) -> float:
        """Seconds at the reference speed for the interval [t0, t1]."""
        lo, hi = bisect_left(self.at, t0), bisect_right(self.at, t1)
        inside = sum(self.took[lo:hi]) if own_process else 0.0
        first = bisect_left(self.at, t0 - LOOKBACK_S)
        if hi - first < MIN_PROBES:
            first = max(0, hi - MIN_PROBES)
            hi = max(hi, min(len(self.took), first + MIN_PROBES))
        window = self.took[first:hi]
        if not window:
            return t1 - t0
        return (t1 - t0 - inside) * statistics.fmean(NOMINAL_S / d for d in window)
