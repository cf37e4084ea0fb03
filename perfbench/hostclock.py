"""Host-speed reference slices, timed inside a job as it runs.

The benchmark's host is a shared VM whose speed swings by up to 2x, from
one second to the next and between processes, with no steal time the
guest can see.  An untraced job process therefore times a fixed
pure-Python loop (a *slice*, ``SLICE_LOOPS`` iterations) every
``PERIOD_S`` seconds of wall time, from a ``SIGALRM`` handler: the
slices run in the job's own thread, between its bytecodes, on whatever
vCPU the job is on at that moment.  A slice's time over ``REFERENCE_S``
(one slice at the host's full speed) is how much slower than full speed
the host ran at that moment.

Times are then reported in *reference seconds*: each stretch of the job
between two slices, divided by the median slowdown of the ``WINDOW``
slices around it, summed (the slices' own time is left out).  The loop
is fixed code, so a change that makes the program faster or slower
moves reference seconds exactly as it moves wall seconds.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Sequence, Tuple

SLICE_LOOPS = 4_000
#: Seconds one slice takes on the host at full speed (a 2.0 GHz Xeon vCPU
#: with an idle sibling); reference seconds are seconds on that host.
REFERENCE_S = 0.00032
PERIOD_S = 0.01
#: Slices whose median sets the slowdown of one stretch: about 0.1 s.
WINDOW = 9


def _slice() -> None:
    total = 0
    for i in range(SLICE_LOOPS):
        total += i * i % 7


class HostClock:
    """The slices one process has timed: ``(start, seconds)`` each, on
    the ``time.perf_counter`` clock."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        #: Seconds spent in slices so far, to take out of any interval.
        self.spent = 0.0

    def start(self) -> None:
        """Drop earlier slices (a forked worker inherits its parent's)
        and time a slice every ``PERIOD_S`` from now on."""
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _slice()
        elapsed = time.perf_counter() - start
        self.samples.append((start, elapsed))
        self.spent += elapsed

    def durations(self) -> List[float]:
        return [seconds for _, seconds in self.samples]

    def reference_seconds(self, start: float, end: float) -> float:
        """The job's own time in ``[start, end]``, in reference seconds
        (seconds as measured when no slice was timed, as in a traced job)."""
        if not self.samples:
            return end - start
        starts = [at for at, _ in self.samples]
        durations = self.durations()
        first = bisect.bisect_left(starts, start)
        last = bisect.bisect_left(starts, end)
        total, cursor = 0.0, start
        # The stretch before slice ``i`` (or before ``end``) runs at the
        # speed of the slices around it.
        for i in range(first, last + 1):
            low = max(0, min(i - WINDOW // 2, len(durations) - WINDOW))
            stop = starts[i] if i < last else end
            total += (stop - cursor) / slowdown(durations[low:low + WINDOW])
            if i < last:
                cursor = stop + durations[i]
        return total


def slowdown(samples: Sequence[float]) -> float:
    """How many times slower than full speed the host ran these slices
    (1.0 when there are none)."""
    return statistics.median(samples) / REFERENCE_S if samples else 1.0
