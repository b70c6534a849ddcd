"""Machine-speed calibration for the end-to-end times.

On a shared machine the same work can take half again as long from one
minute to the next, and its speed moves by a sixth within a quarter of a
minute, because other tenants compete for the cores and caches. The
benchmark therefore runs a fixed numpy workload (the unit) on a timer
throughout the run and reports every end-to-end time in calibrated seconds:

    calibrated = measured * REF_UNIT_S / (median unit time)

The timer interrupts the operations, so the units sample the machine's
speed while the operations run; `clock` leaves the units' own time out of
the operations' times. Each operation's time is scaled by the units run
during it, or by the LOCAL_UNITS units nearest to it when fewer ran during
it; the set-up time by the units run right after each set-up round.
The unit is one nearest-center pass over 60,000 points and 100 passes
over 200 points, in the proportions of tramkit's large and small calls. It
does not call tramkit, so no change to the program moves it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# The unit's median time on the 2-vCPU x86-64 VM where the benchmark was
# written (numpy 2.4.6, OpenBLAS 0.3.31), so that calibrated seconds read
# close to that machine's seconds. It scales every time by one factor.
REF_UNIT_S = 0.050
# Units take this share of the run's time while the timer runs.
UNIT_SHARE = 0.06
# The fewest units that calibrate one operation.
LOCAL_UNITS = 5

_unit_time = 0.0  # total time of all units run so far


def clock() -> float:
    """Wall-clock seconds less the time spent in calibration units."""
    return time.perf_counter() - _unit_time


def _assign(points: np.ndarray, centers: np.ndarray) -> None:
    d = np.empty((points.shape[0], centers.shape[0]))
    for j, c in enumerate(centers):
        diff = points - c
        d[:, j] = np.einsum("ij,ij->i", diff, diff)
    labels = d.argmin(axis=1)
    for dim in range(points.shape[1]):
        np.bincount(labels, weights=points[:, dim], minlength=centers.shape[0])


class Calibrator:
    """Runs units, on demand or on a timer, and keeps their times."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.big = rng.random((60_000, 10)) * 100.0
        self.small = self.big[:200].copy()
        self.centers = self.big[:10].copy()
        self.times: list[float] = []
        self.ends: list[float] = []  # perf_counter at the end of each unit

    def unit(self) -> float:
        """Run one unit; returns its time."""
        global _unit_time
        t0 = time.perf_counter()
        _assign(self.big, self.centers)
        for _ in range(100):
            _assign(self.small, self.centers)
        self.ends.append(time.perf_counter())
        self.times.append(self.ends[-1] - t0)
        _unit_time += self.times[-1]
        return self.times[-1]

    def _on_timer(self, _signum, _frame) -> None:
        t = self.unit()
        signal.setitimer(signal.ITIMER_REAL, t * (1.0 - UNIT_SHARE) / UNIT_SHARE)

    def __enter__(self):
        """Start running units on a timer."""
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, REF_UNIT_S / UNIT_SHARE)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def factor(self, start: float, end: float) -> float:
        """Multiplier from measured to calibrated seconds for work that ran
        from `start` to `end` (perf_counter)."""
        units = [t for t, e in zip(self.times, self.ends) if start <= e <= end]
        if len(units) < LOCAL_UNITS:
            mid = (start + end) / 2
            near = sorted(range(len(self.times)), key=lambda i: abs(self.ends[i] - mid))
            units = [self.times[i] for i in near[:LOCAL_UNITS]]
        return REF_UNIT_S / statistics.median(units)
