"""Host-speed reference: a fixed pure-Python kernel sampled during each campaign.

The benchmark runs on a few cores of a shared host whose speed drifts
by a third or more, over seconds and over minutes: a CPU-bound loop
that takes 40 ms in one minute takes 65 ms two minutes later, and a
campaign slows with it. While a campaign's timed region runs, a timer
signal interrupts it every ``INTERVAL_S`` of CPU time and the handler
times one short slice of this kernel in the campaign's own thread, so
the slices see the same core and the same moments as the campaign.
``run.py`` then scales the campaign's times by ``NOMINAL_S`` over the
mean slice time: host seconds as they would read on a host where one
slice takes ``NOMINAL_S``. The time spent in slices is taken out of the
wall time first.

The kernel uses no ``repro`` code, so a change to the package cannot
move it. It does integer arithmetic and a pointer chase through a 4 MB
table, and allocates no container objects, so it never triggers the
cyclic garbage collector over the campaign's heap.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from typing import List

#: Seconds one slice takes on the reference host (a 2-vCPU shared
#: Xeon VM, CPython 3, at its median speed).
NOMINAL_S = 0.0045

#: CPU seconds of campaign between two slices.
INTERVAL_S = 0.1

_TABLE_BITS = 20
_INT_STEPS = 20_000
_CHASE_STEPS = 15_000


class Sampler:
    """Times one kernel slice every ``INTERVAL_S`` inside a ``with`` block.

    The timer counts CPU time (``ITIMER_PROF``), so the process samples
    only while it computes, not while it waits.
    """

    def __init__(self) -> None:
        mask = (1 << _TABLE_BITS) - 1
        # A full-period LCG modulo 2**20 (odd increment, multiplier
        # 1 mod 4): following it visits every slot once, in a pattern
        # the hardware prefetcher does not follow.
        self._table = array("i", ((1_103_515_245 * j + 12_345) & mask for j in range(mask + 1)))
        self._slot = 0
        self._previous = None
        self.slices: List[float] = []

    def one_slice(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(_INT_STEPS):
            total += i * i
        table = self._table
        slot = self._slot
        for _ in range(_CHASE_STEPS):
            slot = table[slot]
        self._slot = slot
        return time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        self.slices.append(self.one_slice())

    def __enter__(self) -> "Sampler":
        self.slices = []
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def report(self) -> dict:
        """Slice figures for the campaign's result.

        ``slice_total_s`` is the sampling time, which ``run.py`` takes
        out of the wall time. ``slice_s`` is the harmonic mean of the
        slices: the timer samples evenly in time, so the mean of
        ``1 / slice`` is the mean host speed over the campaign, and a
        slice that an interrupt stretched weighs little.
        """
        return {
            "slices": len(self.slices),
            "slice_total_s": sum(self.slices),
            "slice_s": statistics.harmonic_mean(self.slices),
        }
