"""Machine-speed probe: times are reported at a fixed reference speed.

The benchmark shares its machine, whose speed drifts by 20% and more over
seconds and minutes; every operation slows alike, so raw wall times from
two runs of the same code can differ by a third.  Between operations, at
most every ``INTERVAL_S``, the probe times a fixed kernel that is part of the
benchmark and never of the program (dense pivot updates on a small numpy
tableau plus a pure-Python loop, the same mix of work as the program's).  A
duration measured at wall-clock time t is scaled by REFERENCE_S over the
median kernel time within ``WINDOW_S`` of t, so it reads as the duration at
the reference speed.  The raw durations and the probe's samples are kept in
the run record.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0025  # kernel time on the reference machine when it runs fast
INTERVAL_S = 0.1  # at most this much operation time between two probes
WINDOW_S = 2.0  # probes this close to a measurement set its speed factor
MIN_PROBES = 3

_TABLEAU = np.random.default_rng(20261017).normal(size=(24, 48))


def kernel() -> float:
    """Fixed work: 100 pivot-style rank-one updates and a Python reduction."""
    tab = _TABLEAU.copy()
    total = 0.0
    for it in range(100):
        enter = it % 47
        col = tab[:, enter]
        rows = np.nonzero(col > 0.0)[0]
        leave = int(rows[np.argmin(tab[rows, -1] / col[rows])]) if rows.size else it % 24
        pivot = tab[leave] / tab[leave, enter]
        tab -= np.outer(col, pivot)
        tab[leave] = pivot
        np.clip(tab, -1e6, 1e6, out=tab)
        for value in tab[it % 24, :8]:
            total += float(value)
    return total


class SpeedProbe:
    def __init__(self) -> None:
        self.times: list[float] = []  # probe midpoints, ascending
        self.samples: list[float] = []  # kernel seconds
        self._last = -np.inf

    def sample(self) -> None:
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.times.append(0.5 * (start + end))
        self.samples.append(end - start)
        self._last = end

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Multiply a duration measured over [start, end] by this."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo < MIN_PROBES:  # widen to the probes nearest the interval
            mid = bisect.bisect_left(self.times, 0.5 * (start + end))
            lo, hi = max(0, mid - MIN_PROBES), min(len(self.times), mid + MIN_PROBES)
        return REFERENCE_S / statistics.median(self.samples[lo:hi])
