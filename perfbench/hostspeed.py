"""Host-speed probe: converts a timed call to its time at full host speed.

The benchmark shares a host whose other tenants slow this process by up
to 2x, in spells of seconds to minutes.  The process cannot see it: its
CPU time equals its wall time, and the guest reports no steal time.  So
while a timed call runs, a SIGPROF handler fires every ``INTERVAL`` of
CPU time and times a fixed kernel shaped like the library's inner loops
(exp and sum over small numpy arrays).  Each sample gives the host's
speed at that moment as ``NOMINAL / kernel time``; a call's full-speed
time is its wall time, less the time spent in the kernel, times the mean
of those speeds.  The kernel is the benchmark's own code, so a change to
the library does not move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

INTERVAL = 0.01  # s of CPU time between samples
NOMINAL = 64e-6  # s: the kernel's time at full speed on a 2-vCPU Xeon VM

_X = np.linspace(-1.0, 1.0, 32)


def kernel() -> float:
    total = 0.0
    for i in range(20):
        total += float(np.exp(_X * i).sum())
    return total


class SpeedProbe:
    """Samples the host's speed while ``sampling()`` is active."""

    def __init__(self):
        self.speeds: list[float] = []
        self.spent = 0.0  # s spent in the kernel
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.spent += dt
        self.speeds.append(NOMINAL / dt)

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    @contextmanager
    def sampling(self):
        self.start()
        try:
            yield
        finally:
            self.stop()

    def mark(self) -> tuple[int, float]:
        return len(self.speeds), self.spent

    def full_speed(self, wall: float, since: tuple[int, float]) -> float:
        """Full-speed time of ``wall`` seconds measured since ``mark()``
        returned ``since``."""
        start, spent = since
        kernel_time = self.spent - spent
        if len(self.speeds) == start:  # shorter than INTERVAL: sample once now
            self._sample(signal.SIGPROF, None)
        return (wall - kernel_time) * statistics.fmean(self.speeds[start:])
