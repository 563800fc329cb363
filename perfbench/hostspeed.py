"""Host-speed probe: wall seconds scaled to a fixed reference host speed.

On a machine shared with other tenants, the speed of one core drifts by up
to 2x over seconds to minutes, far more than any regression bound could
absorb.  While a probe is active, a timer interrupts the process every
``PERIOD_S`` seconds and times a fixed slice of work that shares no code
with semiweyl.  ``normalize`` then removes the probe's own time from a wall
interval and scales the rest by the mean of ``REF_SLICE_S / slice`` over the
slices taken inside it: the seconds the interval would have taken on a host
where one slice takes ``REF_SLICE_S``.  Because the slices are spread
through the interval, they see the same host state as the work they
bracket, so a change to semiweyl moves the result and a busy neighbour
mostly does not.  The probe's work costs about 7% of each interval; it is
left out of the result.
"""

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
SLICE_STEPS = 1000
ARRAY_STEPS = 60
REF_SLICE_S = 0.001  # nominal: it fixes the unit; only ratios between runs matter

_G = np.array([1.0, 0.5, 0.25])
_H = np.eye(3) * 0.1
_TABLE = np.linspace(0.0, 1.0, 1 << 19)  # 4 MiB, past the per-core caches
_READS = np.arange(20000) * 2654435761 % _TABLE.size  # scattered, fixed


class _Dual:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __mul__(self, other):
        return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)

    def __add__(self, other):
        return _Dual(self.a + other.a, self.b + other.b)


def _slice():
    """Fixed work in three parts: object allocation with float arithmetic,
    small numpy arrays, and scattered reads from a table larger than a
    core's caches.  Together they track the slowdown of every workload
    better than any one part alone."""
    start = time.perf_counter()
    acc, step = _Dual(1.0, 0.0), _Dual(0.999, 1.0)
    for _ in range(SLICE_STEPS):
        acc = acc * step + step
    v, g, h = 1.0, _G.copy(), _H.copy()
    for _ in range(ARRAY_STEPS):
        h = v * _H + 0.999 * h + np.outer(g, _G)
        g = v * _G + 0.999 * g
        v = 0.999 * v + 1e-3
        h *= 1e-3
        g *= 1e-3
    _TABLE[_READS].sum()
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager that samples the host speed while it is active.

    It owns ``SIGALRM`` and ``ITIMER_REAL`` for its duration.  Intervals
    are given in ``time.perf_counter()`` seconds (``CLOCK_MONOTONIC``, the
    same clock as ``time.monotonic()`` on Linux, so an interval may start
    in another process).
    """

    def __init__(self):
        self.starts = []  # when each slice's handler started
        self.spent = []  # the handler's own seconds
        self.slices = []  # the slice's seconds

    def _on_timer(self, signum, frame):
        start = time.perf_counter()
        slice_s = _slice()
        self.starts.append(start)
        self.slices.append(slice_s)
        self.spent.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.slices:  # shorter than one period: sample once now
            self._on_timer(None, None)
            self.spent[-1] = 0.0  # taken after the timed work, not inside it

    def normalize(self, start, end):
        """Seconds from ``start`` to ``end``, less the probe's own time in
        them, at the reference speed.  The slices taken inside the interval
        give its speed; an interval too short to hold one uses the nearest."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        inside = self.slices[lo:hi]
        if not inside:
            after = min(lo, len(self.slices) - 1)
            near = after if after == 0 or self.starts[after] - end < start - self.starts[after - 1] else after - 1
            inside = [self.slices[near]]
        factor = statistics.fmean(REF_SLICE_S / s for s in inside)
        return (end - start - sum(self.spent[lo:hi])) * factor
