"""Deterministic low-discrepancy sampling of chart domains."""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["halton_points", "PRIMES"]

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MARGIN = 0.02  # relative margin of the samples from the box's faces


def _radical_inverse(i, base):
    f = 1.0
    r = 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


@cache
def halton_points(chart, count, seed=0):
    """``count`` Halton points inside the chart box, offset by ``seed``.

    A small relative margin keeps samples strictly inside the open box.
    The set is computed once per chart, count and seed and shared by every
    caller, so it is read-only.
    """
    lo = np.asarray(chart.lo, dtype=float)
    hi = np.asarray(chart.hi, dtype=float)
    span = hi - lo
    lo = lo + MARGIN * span
    span = (1.0 - 2.0 * MARGIN) * span
    dim = chart.dim
    if dim > len(PRIMES):
        raise ValueError("chart dimension too large for Halton sampling")
    start = 1 + 7919 * int(seed)
    pts = np.empty((count, dim))
    for k in range(count):
        i = start + k
        for d in range(dim):
            pts[k, d] = _radical_inverse(i, PRIMES[d])
    pts = lo + pts * span
    pts.flags.writeable = False
    return pts
