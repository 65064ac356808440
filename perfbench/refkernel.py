"""Reference kernel and host-drift normalization.

The host this benchmark was built on changes speed by about a fifth over
seconds (a fixed pure-Python loop timed in windows from 0.3 s to 10 s
varies with an IQR near 21% of its median, with no steal ticks in
``/proc/stat``).  A run therefore interleaves short slices of a fixed
kernel with its operations and divides every host-time measurement by
the kernel's time at about the same moment.  ``REFERENCE_SLICE_S`` scales
the result back so that normalized values read as seconds on this host
at its median speed.

This module imports nothing from ``repro``: the kernel must not change
when the program under test does.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time
from pathlib import Path

import numpy as np

#: Median seconds of one :func:`kernel_slice` on the calibration host
#: (2-vCPU x86-64 container, Python 3.11, numpy 2.4), fixed once.
REFERENCE_SLICE_S = 0.038

#: Iterations of the pure-Python part of one slice.
_LOOP_ITERATIONS = 240_000

#: Input of the numpy part of one slice: sorted into a fresh copy.
_SORT_INPUT = np.random.default_rng(20230617).random(800_000)


def steal_s() -> float:
    """Seconds of CPU time the hypervisor has taken from this VM so far
    (the ``steal`` column of ``/proc/stat``; 0 where it is not exposed)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _python_loop(iterations: int) -> int:
    total = 0
    for index in range(iterations):
        total += (index * index) % 7
    return total


def kernel_slice() -> float:
    """Run the fixed kernel once; returns its duration in seconds."""
    start = time.perf_counter()
    _python_loop(_LOOP_ITERATIONS)
    np.sort(_SORT_INPUT)
    return time.perf_counter() - start


#: Slices in the running median that smooths a single slice's jitter
#: (one slice alone varies with an IQR near 20% even on a steady host).
SMOOTHING_SLICES = 5


class DriftClock:
    """Kernel slices over a run, and the speed factor they imply.

    A slice is taken only between operations (never while a request or
    job of the program is in flight).  ``factor(t)`` is the running
    median of :data:`SMOOTHING_SLICES` slice times, linearly
    interpolated at ``t`` and divided by :data:`REFERENCE_SLICE_S`:
    above 1 the host is slower than its median, below 1 faster.
    """

    def __init__(self, interval_s: float = 0.5) -> None:
        self.interval_s = interval_s
        self.times: list[float] = []  # slice midpoints (perf_counter)
        self.seconds: list[float] = []  # slice durations
        self._last_s = -float("inf")
        self._smoothed: list[float] | None = None
        self.steal: list[float] = []  # cumulative steal seconds per slice

    def take(self) -> float:
        """Run one slice now; returns its duration."""
        start = time.perf_counter()
        duration = kernel_slice()
        self.times.append(start + duration / 2.0)
        self.seconds.append(duration)
        self.steal.append(steal_s())
        self._last_s = start + duration
        self._smoothed = None
        return duration

    def maybe_take(self) -> None:
        """Run a slice if ``interval_s`` has passed since the last one."""
        if time.perf_counter() - self._last_s >= self.interval_s:
            self.take()

    def factor(self, at_s: float) -> float:
        """Host slowness at ``at_s`` relative to the reference speed."""
        if not self.times:
            raise RuntimeError("no kernel slice taken yet")
        if self._smoothed is None:
            half = SMOOTHING_SLICES // 2
            self._smoothed = [
                statistics.median(self.seconds[max(0, i - half) : i + half + 1])
                for i in range(len(self.seconds))
            ]
        smoothed = self._smoothed
        index = bisect.bisect_left(self.times, at_s)
        if index <= 0:
            seconds = smoothed[0]
        elif index >= len(self.times):
            seconds = smoothed[-1]
        else:
            t0, t1 = self.times[index - 1], self.times[index]
            s0, s1 = smoothed[index - 1], smoothed[index]
            weight = (at_s - t0) / (t1 - t0) if t1 > t0 else 0.0
            seconds = s0 + (s1 - s0) * weight
        return seconds / REFERENCE_SLICE_S

    def normalize(self, start_s: float, end_s: float) -> float:
        """The interval's length in reference-speed seconds."""
        return (end_s - start_s) / self.factor((start_s + end_s) / 2.0)

    def overhead_s(self) -> float:
        """Host seconds spent in slices."""
        return sum(self.seconds)

    def audit(self, window_s: float) -> dict:
        """The drift audit trail: every slice and the kernel's rate."""
        median = statistics.median(self.seconds)
        quartiles = (
            statistics.quantiles(self.seconds, n=4)
            if len(self.seconds) >= 2
            else [median, median, median]
        )
        return {
            "reference_slice_s": REFERENCE_SLICE_S,
            "slices": len(self.seconds),
            "slice_s_median": median,
            "slice_s_iqr_share": (quartiles[2] - quartiles[0]) / median,
            "slice_s_min": min(self.seconds),
            "slice_s_max": max(self.seconds),
            "kernel_rate_per_s": 1.0 / median,
            "overhead_share": self.overhead_s() / window_s if window_s > 0 else 0.0,
            "steal_s": self.steal[-1] - self.steal[0],
            "trail": [
                [round(t, 6), round(s, 6)] for t, s in zip(self.times, self.seconds)
            ],
        }
