"""Timings scaled to a nominal host speed.

On a shared host a vCPU switches between its full speed and one about
1.7 times slower (as when another tenant runs on its sibling
hyperthread), and it may stay in either for seconds or for minutes.
That moves every wall time of a run alike: on a 2-vCPU VM, ten runs of
one workload differed by up to 1.7 times in the same median latency.

The benchmark therefore times a fixed loop (a probe) on the core the
work runs on (``run.py`` pins the benchmark, its threads and its server
to one CPU) next to every timed call, and scales the call's time by the
probe's nominal time over its measured time.  The program's code never
runs inside a probe, so a change that slows the program slows its
scaled times just as much; what cancels is the core's speed.

Contention does not slow all code alike, so each workload is scaled by
the probe that slows as its own code does (fitted over runs on fast and
slow cores):

* :data:`MIXED` — a dictionary loop, a numpy sort and many small numpy
  calls — for the batch workloads, whose joins spend much of their time
  in numpy: they slowed about 1.3 times where a pure-Python loop slowed
  1.6 times, so the loop alone made a run on a slow core read up to 15%
  faster than one on a fast core;
* :data:`INTERPRETER` — the dictionary loop alone — for the server,
  whose requests are interpreter and socket work and slowed as much as
  the loop does (the mixed probe left slow-core runs up to 10% slower).
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_RNG = np.random.default_rng(0)
_SORTED = _RNG.integers(0, 1_000, 16_000)
_SMALL = [_RNG.integers(0, 50, (8, 6)) for _ in range(15)]


def _dictionary_loop(iterations: int) -> None:
    table: dict[int, int] = {}
    for i in range(iterations):
        table[i % 97] = table.get(i % 97, 0) + i


def _mixed() -> None:
    _dictionary_loop(800)
    np.sort(_SORTED)
    for block in _SMALL:
        (block.min(axis=0) <= block.max(axis=0)).sum()


@dataclass(frozen=True)
class Probe:
    loop: Callable[[], None]
    #: The loop's time at the speed timings are scaled to: about its
    #: time on an uncontended vCPU of the host the baseline was
    #: recorded on.
    nominal_s: float

    def seconds(self, repeats: int = 1) -> float:
        """Best of ``repeats`` timings of the loop."""
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            self.loop()
            best = min(best, time.perf_counter() - started)
        return best


MIXED = Probe(_mixed, 2.2e-4)
INTERPRETER = Probe(lambda: _dictionary_loop(2_400), 2.0e-4)


class HostSpeed:
    """Scales each of a sequence of timed calls by probes around it.

    A :data:`MIXED` probe (best of three) runs before the first call and
    after each one; a call is scaled by the mean of the probes on either
    side.
    """

    def __init__(self) -> None:
        self.last = MIXED.seconds(3)

    def scale(self, seconds: float) -> float:
        """``seconds`` just measured, at the nominal speed."""
        now = MIXED.seconds(3)
        factor = MIXED.nominal_s / ((self.last + now) / 2)
        self.last = now
        return seconds * factor


class SpeedSamples:
    """:data:`INTERPRETER` probes (best of three) taken at chosen
    instants, for requests too short and too frequent to probe around
    each one."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.probes: list[float] = []

    def sample(self) -> None:
        self.probes.append(INTERPRETER.seconds(3))
        self.times.append(time.perf_counter())

    def factor_at(self, instant: float) -> float:
        """Nominal over measured probe time at ``instant``, with the probe
        time interpolated between the samples around it."""
        index = bisect.bisect_left(self.times, instant)
        if index == 0:
            measured = self.probes[0]
        elif index == len(self.times):
            measured = self.probes[-1]
        else:
            before, after = self.times[index - 1], self.times[index]
            weight = (instant - before) / (after - before)
            measured = self.probes[index - 1] + weight * (
                self.probes[index] - self.probes[index - 1]
            )
        return INTERPRETER.nominal_s / measured
