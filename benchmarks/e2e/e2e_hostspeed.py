"""Host-speed reference: a fixed unit of benchmark-local work, timed between requests.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by up
to 2x over minutes and flips between a fast and a slow state every few
hundred milliseconds.  A fixed Python and NumPy kernel, timed in 15-30 s
windows a minute apart, spreads by 0.26-0.34 (interquartile range over
median), so raw timings of ten runs spread as much whatever the program
does.  CPU time moves with wall time: the host slows the vCPU rather than
descheduling it.

So the load generator runs one *reference unit* between requests, at most
every :data:`TICK_SECONDS`, and times it with the thread's CPU clock.  Each
request's latency is scaled by ``REFERENCE_UNIT_SECONDS / t``, where ``t``
is the mean CPU time of the :data:`NEIGHBOURS` units nearest the request's
answer: the latency the request would have had with the host running the
unit in :data:`REFERENCE_UNIT_SECONDS`.  Set-up times are scaled the same
way by bursts of units run right before and after each set-up.

The unit is benchmark-local code (statement-like text parsing into a dict,
and a NumPy mask-and-sum over 30,000 floats), so no change to the program
changes it, and timing it with the thread's CPU clock leaves out time spent
waiting for the interpreter lock: a program change that keeps other threads
busy slows the requests but not the unit.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

#: CPU time of one reference unit at the reference speed (about the fastest
#: the reference host ran it).
REFERENCE_UNIT_SECONDS = 0.0004

#: Least wall time between two units run by :meth:`HostSpeed.tick`.
TICK_SECONDS = 0.004

#: Units whose mean gives a request's local host speed.
NEIGHBOURS = 4

#: Wall time of one burst of units around a set-up.
BURST_SECONDS = 0.1

_RNG = np.random.default_rng(20170403)
_VALUES = _RNG.random(30_000)
_TEXTS = [
    f"SELECT AVG(u) FROM R1 WITHIN {r!r} OF ({x!r}, {y!r})"
    for r, x, y in _RNG.random((16, 3)).tolist()
]


def reference_unit() -> float:
    """One fixed unit of work: Python text handling, then a NumPy scan."""
    table = {}
    for text in _TEXTS:
        words = text.replace("(", " ").replace(")", " ").replace(",", " ").split()
        table[tuple(words[:5])] = [float(word) for word in words[6:] if word[0].isdigit()]
    mask = np.abs(_VALUES - 0.5) < 0.25
    return float(_VALUES[mask].sum()) + len(table)


class HostSpeed:
    """Runs reference units and turns wall times into host-speed factors."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 cpu_clock: Callable[[], float] = time.thread_time,
                 unit: Callable[[], object] = reference_unit) -> None:
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.unit = unit
        #: ``(wall time the unit started, CPU seconds it took)`` in time order.
        self.samples: list[tuple[float, float]] = []
        self._last = -float("inf")

    def run_unit(self) -> float:
        started, cpu = self.clock(), self.cpu_clock()
        self.unit()
        seconds = self.cpu_clock() - cpu
        self.samples.append((started, seconds))
        self._last = self.clock()
        return seconds

    def tick(self) -> None:
        """Run one unit unless one ran less than :data:`TICK_SECONDS` ago."""
        if self.clock() - self._last >= TICK_SECONDS:
            self.run_unit()

    def burst(self, seconds: float = BURST_SECONDS) -> float:
        """Run units for ``seconds`` of wall time; their mean CPU time."""
        end = self.clock() + seconds
        times = [self.run_unit()]
        while self.clock() < end:
            times.append(self.run_unit())
        return float(np.mean(times))

    def factors_at(self, times) -> np.ndarray:
        """Host-speed factor (``REFERENCE_UNIT_SECONDS`` / local unit time)
        at each wall time, from the :data:`NEIGHBOURS` nearest units."""
        times = np.asarray(times, dtype=float)
        if not self.samples:
            return np.full(times.shape, np.nan)
        starts, seconds = np.asarray(self.samples).T
        k = min(NEIGHBOURS, len(starts))
        first = np.clip(np.searchsorted(starts, times) - k // 2, 0, len(starts) - k)
        sums = np.concatenate([[0.0], np.cumsum(seconds)])
        local = (sums[first + k] - sums[first]) / k
        return REFERENCE_UNIT_SECONDS / local
