"""Machine speed sampled through the timed phase.

The host this benchmark was built on drifts in speed by about +-10% over
seconds to minutes: a fixed Python loop timed back to back for a minute
ranged from 0.84 to 1.08 of its median over 5 s windows, and the report
workload's round time varied by 10-19% (quartile distance over median)
between runs.  ``SpeedProbe`` times the same fixed loop from a SIGALRM handler every
``PERIOD`` seconds of the phase, so the samples cover the phase uniformly in
time, and ``scale`` converts a measured time into reference seconds: the
time the same work takes when the loop runs in ``REFERENCE_S``.  Over three
ten-seed sets per workload this lowered the mean run-to-run spread of the
round time from 7.9% to 5.9%, and of the median problem time from 9.6% to
7.8%.  The probe's own time is left out of ``clock``.  The mean, not the
median, of the samples is used: a sample hit by a preemption of the virtual
CPU stands for the share of the phase that was lost the same way.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD = 0.1
#: Median time of ``_loop`` on the reference machine (2-core VM, Python 3.11).
REFERENCE_S = 1.65e-3


def _loop() -> int:
    total = 0
    for i in range(15000):
        total += i * i % 7
    return total


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        _loop()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.busy += took

    def clock(self) -> float:
        """Wall clock that stands still while the probe runs."""
        return time.perf_counter() - self.busy

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self._tick(None, None)

    def scale(self) -> float:
        """Factor from measured seconds to reference seconds."""
        return REFERENCE_S / statistics.fmean(self.samples)
