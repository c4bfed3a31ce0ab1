"""Timing at a steady reference speed on a machine whose speed wanders.

On a shared host the same pure-Python work can run at full speed or up to
about 1.6 times slower, for seconds or minutes at a time, depending on what
other tenants do.  Wall times alone then spread more across runs than any
change worth measuring.  While a ``Pacer`` is entered it interrupts the
process every ``INTERVAL`` seconds (``SIGALRM``) and times ``probe``, a
fixed chunk of pure-Python exact arithmetic that uses no clgames code.  A
time measured with ``elapsed`` is then

    (wall time - time spent in probes) * REFERENCE_PROBE_S / mean probe time

over the probes that ran during it (and ``LOOKBACK_S`` before it): the
time the same work would take at the speed at which ``probe`` takes
``REFERENCE_PROBE_S``.  A change in clgames changes the wall time and not
the probes, so it shows in full; a change in the machine's speed changes
both, and cancels out.

``Clock`` has the same interface and reports plain wall time.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL = 0.02
# About the probe's time on the 2-vCPU Xeon VM the benchmark was tuned on,
# where it took 1-2.5 ms as the machine's speed changed.
REFERENCE_PROBE_S = 0.002
# Probes that ended this long before a measured span count for it as well,
# so that a span shorter than INTERVAL still has some.
LOOKBACK_S = 0.05

_EIGHTHS = tuple(Fraction(n, 8) for n in range(9))
_ONE = Fraction(1)


def probe() -> Fraction:
    """A fixed chunk of exact arithmetic, tuple hashing and dict updates."""
    table = {}
    acc = Fraction(0)
    for i in range(192):
        x = _EIGHTHS[i % 9]
        acc = min(acc + x, _ONE) - x / 2
        table[(i, i % 3)] = max(acc, table.get((i - 1, (i - 1) % 3), acc))
    return acc


class Clock:
    """Plain wall time: ``elapsed(mark())`` is the seconds in between."""

    def mark(self):
        return time.perf_counter()

    def elapsed(self, mark) -> float:
        return time.perf_counter() - mark


class Pacer(Clock):
    """While entered, probes the machine's speed every ``INTERVAL`` seconds;
    ``elapsed(mark())`` is then net of the probes and rescaled to the
    reference speed."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.ends: list[float] = []  # when each probe ended, in order
        self.durations: list[float] = []
        self.probed_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        self.probed_s += t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        while not self.ends:  # so that every span has a probe to scale by
            time.sleep(self.interval / 4)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        return time.perf_counter(), self.probed_s

    def elapsed(self, mark) -> float:
        t0, probed = mark
        t1 = time.perf_counter()
        return (t1 - t0 - (self.probed_s - probed)) * self.scale(t0, t1)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_PROBE_S / mean time of the probes that ended in
        ``[start - LOOKBACK_S, end]``, or of the last probe before that."""
        j = bisect.bisect_right(self.ends, end)
        i = min(bisect.bisect_left(self.ends, start - LOOKBACK_S), j - 1)
        return REFERENCE_PROBE_S * (j - i) / sum(self.durations[i:j])
