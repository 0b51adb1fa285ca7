"""Machine-speed probes: times are reported in reference seconds.

The benchmark runs on shared machines whose speed drifts.  On a small cloud
VM the same op switched between about 0.2 s and 0.35 s for stretches of
several seconds, and a fixed loop's speed moved by a quarter from one second
to the next.  Raw wall times from two runs minutes apart then differ by more
than any useful regression bound.

So a short, fixed piece of standard-library work (rational arithmetic, the
kind of work the library spends its time on) is timed from a wall-clock
timer signal every ``INTERVAL`` seconds while ops run.  An op's time, minus
the probes that ran inside it, is rescaled by ``PROBE_REF / probe``, where
``probe`` is the mean probe time over the op (the probes inside it and the
nearest one on each side).  It then reads as the time the op would take on a
machine where the probe takes ``PROBE_REF`` seconds.  The probe uses nothing
from ``lpiso``, so no change to the library can move it.
"""

from __future__ import annotations

import bisect
import signal
import sys
import time
from fractions import Fraction
from typing import List

PROBE_REF = 0.010  # seconds: the probe's time on the reference machine
INTERVAL = 0.2  # seconds of wall time between probes while ops run
_PROBE_STEPS = 500

now = time.perf_counter


def probe() -> float:
    """Seconds the fixed probe work takes right now."""
    t = now()
    x, s = Fraction(1, 3), Fraction(0)
    for i in range(1, _PROBE_STEPS):
        s = (s + x * Fraction(i, i + 1)).limit_denominator(1 << 40)
    return now() - t


def scale(before: float, after: float) -> float:
    """Factor from raw to reference seconds for a span between two probes."""
    return PROBE_REF / ((before + after) / 2)


class Sampler:
    """Probes every ``INTERVAL`` seconds from SIGALRM while in a ``with`` block.

    ``spent`` accumulates the seconds the timer's probes took, so a caller
    can take them out of the span they interrupted.  The probes run with any
    trace hook suspended, so a traced op does not trace them.
    """

    def __init__(self) -> None:
        self.times: List[float] = []  # when each probe started
        self.probes: List[float] = []  # how long each took
        self.spent = 0.0

    def _sample(self) -> float:
        t = now()
        self.times.append(t)
        self.probes.append(probe())
        return now() - t

    def _on_timer(self, signum, frame) -> None:
        hook = sys.gettrace()
        sys.settrace(None)
        try:
            self.spent += self._sample()
        finally:
            sys.settrace(hook)

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def factor(self, t0: float, t1: float) -> float:
        """Raw-to-reference factor for the span [t0, t1], once the block has ended."""
        lo = max(0, bisect.bisect_left(self.times, t0) - 1)
        hi = min(len(self.times), bisect.bisect_right(self.times, t1) + 1)
        window = self.probes[lo:hi]
        return PROBE_REF / (sum(window) / len(window))
