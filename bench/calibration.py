"""Machine-speed calibration for timings taken on a shared host.

On a core shared with other tenants, the speed of pure-Python code drifts
by tens of percent over seconds: the same fixpres operation, repeated for
150 s on a shared 2-vCPU Xeon host, had 10-second medians between 0.044 s and
0.079 s. A run of about 30 s cannot average that out. So the benchmark
interleaves a fixed calibration kernel (exact Fraction elimination, the
same kind of work fixpres does, but no fixpres code) with the operations,
at most INTERVAL_S apart, and scales every timing by REFERENCE_S divided
by the kernel time measured around it. A scaled time reads as the time
the operation takes while the kernel takes REFERENCE_S. The kernel is
part of the benchmark, so a change to fixpres cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# Median kernel time on the 2-vCPU x86-64 host where the baselines in
# README.md were taken.
REFERENCE_S = 0.018
INTERVAL_S = 0.5
_SIDE = 7
_ROUNDS = 10


def kernel() -> None:
    """Gauss-Jordan elimination of a fixed 7 x 7 rational matrix, ten times."""
    for _ in range(_ROUNDS):
        rows = [
            [Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 3 + 1) for j in range(_SIDE)]
            for i in range(_SIDE)
        ]
        for c in range(_SIDE):
            p = next(r for r in range(c, _SIDE) if rows[r][c])
            rows[c], rows[p] = rows[p], rows[c]
            inv = 1 / rows[c][c]
            rows[c] = [x * inv for x in rows[c]]
            for r in range(_SIDE):
                if r != c and rows[r][c]:
                    f = rows[r][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]


class Clock:
    """Calibration samples over a run, and the scale factor at any moment."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.times.append(time.perf_counter() - start)

    def maybe_sample(self) -> None:
        """Sample when the last sample is more than INTERVAL_S old."""
        if not self.starts or time.perf_counter() - self.starts[-1] > INTERVAL_S:
            self.sample()

    def factor(self, at: float) -> float:
        """REFERENCE_S over the mean of the samples just before and after `at`."""
        k = bisect.bisect_right(self.starts, at)
        around = self.times[max(k - 1, 0) : k + 1]
        return REFERENCE_S / statistics.fmean(around)
