"""Host-speed calibration, so host times compare across runs.

On a shared host the same code runs up to twice as slow from one
minute to the next, and by tens of percent from one second to the
next: neighbours contend for cores, caches and memory bandwidth.  That
drift moves the workloads of a run alike, so a run also times fixed
reference kernels — a pure-Python gather over a large list and a numpy
matrix-vector loop, sharing no code with ``repro`` — right before each
timed operation (and after the long ones), and scales that operation's
host time to the reference speed: a duration ``d`` measured while the
reference kernels took ``s`` times their nominal duration is reported
as ``d / s``.  A change to ``repro`` moves the reported times exactly
as it moves the raw ones; a busier host moves them much less.  Raw
times are kept beside them.

The two kernels do not slow down alike: neighbours slow the gather,
which misses the cache on every element, far more than numpy work.
Each workload is therefore scaled by the kernels its own host time
follows.  Over twelve seeded runs on a 2-vCPU Xeon host, with the
gather at 1.0-2.4x and the matvec at 0.9-1.3x its nominal time, the
serving workloads' raw times followed the matvec kernel alone (log-log
slope 1.0-1.3, 2-5% residual) and the cluster workloads the mean of
both (slope 0.9-1.1).  Scaled by the mean of both, the serving
workloads' host metrics spread by 7-16% from seed to seed (interquartile
range over median); rescaling the same runs by their median matvec
slowdown gives 3-9%.  The clusters spread by 4-14% scaled by the mean,
and the matvec alone would give 19-37%.

``NOMINAL_S`` holds each kernel's median duration on the host the
baseline was measured on (``baseline.json``), so reported times read as
that host's times at the baseline's speed.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

import numpy as np

#: Median duration (seconds) of each reference kernel on the baseline
#: host; see the module docstring.
NOMINAL_S = {"py_gather": 5.0e-3, "np_matvec": 1.8e-3}

#: Kernel runs per calibration point (the point takes their median).
POINT_RUNS = 3

#: Seconds between calibration points in a loop of short operations.
INTERVAL_S = 0.5


class Calibrator:
    """Times the reference ``kernels`` (names in :data:`NOMINAL_S`);
    :attr:`slowdown` is their mean slowdown over the nominal speed at
    the latest calibration point."""

    def __init__(self, kernels):
        self._kernels = [(name, getattr(self, f"_{name}"))
                         for name in kernels]
        rng = np.random.default_rng(0xCA1)
        self._table = list(range(300_000))
        self._order = [int(i) for i in rng.integers(0, 300_000, 30_000)]
        self._matrix = rng.standard_normal((1024, 1024))
        self._vector = rng.standard_normal(1024)
        self.points: List[float] = []
        self._last = -float("inf")

    @property
    def slowdown(self) -> float:
        """Slowdown at the latest point (taking one if there is none):
        2.0 means the reference kernels ran at half nominal speed."""
        if not self.points:
            self.point()
        return self.points[-1]

    def _py_gather(self) -> int:
        table = self._table
        total = 0
        for i in self._order:
            total += table[i]
        return total

    def _np_matvec(self) -> float:
        x = self._vector
        for _ in range(8):
            x = np.tanh(self._matrix @ x)
        return float(x[0])

    def point(self) -> float:
        """Take one calibration point; returns the seconds it took."""
        start = time.perf_counter()
        ratios = []
        for name, kernel in self._kernels:
            runs = []
            for _ in range(POINT_RUNS):
                t0 = time.perf_counter()
                kernel()
                runs.append(time.perf_counter() - t0)
            ratios.append(statistics.median(runs) / NOMINAL_S[name])
        self.points.append(statistics.fmean(ratios))
        self._last = time.perf_counter()
        return self._last - start

    def maybe(self) -> float:
        """Take a point if :data:`INTERVAL_S` has passed since the last
        one; returns the seconds spent (0.0 when it took none)."""
        if time.perf_counter() - self._last < INTERVAL_S:
            return 0.0
        return self.point()

    def summary(self) -> Dict[str, float]:
        return {"kernels": [name for name, _ in self._kernels],
                "points": len(self.points),
                "slowdown_median": statistics.median(self.points),
                "slowdown_min": min(self.points),
                "slowdown_max": max(self.points)}
