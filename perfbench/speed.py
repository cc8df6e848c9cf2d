"""The host's speed, sampled while a timed run executes.

Shared hosts change speed in phases lasting fractions of a second to
minutes: on a 2-vCPU Xeon VM (no hardware counters, no steal time) the same
call took 1.5-1.75x longer in its slow phases, and CPU time tracked wall
time. A wall-clock interval timer therefore interrupts the timed run every
INTERVAL seconds, and its handler times a fixed interpreter loop. The run's
wall time divided by the mean probe time is a time in units of the probe
loop, which moves when the code changes but much less when the host does.
Over five 40 s processes per workload on that VM, the spread (quartile
distance over median) of the per-process median was 5-9% for this ratio
against 7-26% for the least and 17-19% for the median of the raw wall time.
The probe adds about 0.5% to the timed part.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL = 0.02        # seconds of wall time between probes
PROBE_STEPS = 2000     # about 0.1 ms of interpreter work per probe


def _probe() -> int:
    x = 0
    for i in range(PROBE_STEPS):
        x = (x * 31 + i) & 0xFFFF
    return x


class SpeedProbe:
    """Context manager that samples the probe time until it exits."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        t = perf_counter()
        _probe()
        self.samples.append(perf_counter() - t)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)
