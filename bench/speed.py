"""Host-speed sampling: timings are reported at a fixed reference speed.

The host's speed drifts by up to 2x, on time scales from milliseconds to
minutes, and the drift is invisible to the process (CPU time drifts with
wall time).  A ``Sampler`` therefore runs a tiny fixed probe every
``INTERVAL_S`` seconds from a SIGALRM handler, in the measured process
itself, and ``at_reference`` rescales a measured interval by the mean
``REFERENCE_S / probe time`` over the probes in and around it, after taking
out the probes' own time.  The probe never touches procure and does the
kind of work procure does (exact rational arithmetic, comparisons, tuple
sorting), so a drift that slows one slows the other.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array
from fractions import Fraction

INTERVAL_S = 0.01
REFERENCE_S = 0.0002  # probe time that defines reference speed


def _probe() -> None:
    total, rows = Fraction(0), []
    for i in range(1, 30):
        total += Fraction(1, i % 7 + 1) * Fraction(3, 7)
        if total > 5:
            total -= 5
        rows.append((total, i))
    rows.sort()


class Sampler:
    """Probe the host's speed every INTERVAL_S seconds while active."""

    def __init__(self):
        self.times = array("d")  # probe start times
        self.spent = array("d")  # probe durations
        self._previous = None

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _probe()
        self.times.append(start)
        self.spent.append(time.perf_counter() - start)

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def work(self, start: float, end: float) -> float:
        """Wall seconds in [start, end] not spent in probes."""
        lo, hi = bisect.bisect_left(self.times, start), bisect.bisect_left(self.times, end)
        return end - start - sum(self.spent[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """Reference speed over host speed, from the probes in and around
        [start, end]."""
        lo = max(0, bisect.bisect_left(self.times, start) - 1)
        hi = min(len(self.times), bisect.bisect_left(self.times, end) + 1)
        factors = [REFERENCE_S / s for s in self.spent[lo:hi]]
        return sum(factors) / len(factors)

    def at_reference(self, start: float, end: float) -> float:
        """The work in [start, end] in seconds at reference speed."""
        return self.work(start, end) * self.factor(start, end)
