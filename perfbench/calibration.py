"""A fixed piece of interpreter work that tells how fast the host runs just now.

The benchmark runs on a few cores of a shared host whose speed drifts by up to
2x over minutes, for CPU time as much as for wall time.  The workers therefore
run this probe every INTERVAL_S through every timed batch (Sampler), and the
benchmark reports times scaled to a host on which one probe takes REFERENCE_S:

    scaled = (measured - probe seconds) * REFERENCE_S / mean(probe seconds)

The probe is pure Python, like chamberlab: Fraction and int arithmetic as in
the exact layers, float arithmetic and dict stores as in numerics.  A change
to chamberlab leaves the probe's work unchanged, so it moves scaled times as
much as measured ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# About the mean probe time on an idle 2-vCPU VM; it fixes the scale only.
REFERENCE_S = 0.0075
# One probe per this many seconds of wall time takes about a tenth of a batch.
INTERVAL_S = 0.1


def probe() -> float:
    """Seconds for one fixed piece of work."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 750):
        acc = (acc + Fraction(k, k + 1)) * Fraction(k + 2, k + 3)
        acc = Fraction(acc.numerator % 1000003, acc.denominator % 1000003 or 1)
    x, table = 0.0, {}
    for k in range(10000):
        x = x * 0.999 + k * 1e-3
        table[k & 255] = x
    return time.perf_counter() - start


def probe_for(seconds: float) -> list[float]:
    """Probe times, repeated until they add up to `seconds` (at least one)."""
    times = [probe()]
    while sum(times) < seconds:
        times.append(probe())
    return times


def scale(times: list[float]) -> float:
    """Factor that turns a time measured beside these probes into reference seconds."""
    return REFERENCE_S / statistics.fmean(times)


class Sampler:
    """Inside a with-block, runs one probe every INTERVAL_S of wall time from a
    SIGALRM timer, so the probes sample the block evenly however long its
    calls are.  `times` holds the probe times, `spent` their sum; a block
    that ends before the first tick gets one probe at its end.  A disabled
    sampler does nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.times: list[float] = []
        self.spent = 0.0
        self._active = False

    def __enter__(self):
        if self.enabled:
            signal.signal(signal.SIGALRM, self._tick)
            self._active = True
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            # A tick already delivered runs the handler later; it must not probe.
            self._active = False
            if not self.times:
                self._record()
        return False

    def _tick(self, signum, frame) -> None:
        if self._active:
            self._record()

    def _record(self) -> None:
        seconds = probe()
        self.times.append(seconds)
        self.spent += seconds
