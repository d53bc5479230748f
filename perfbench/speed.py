"""Host speed sampled while petrel runs, so its timings can be scaled to a steady host.

The benchmark runs on a few virtual cores of a shared machine, whose
neighbours change how fast those cores run from one second to the next:
the same 20k-task greedy-fanout iteration takes anywhere from 2.7 to 5.4
host seconds.  A median over a run's iterations does not remove that,
because the slow and fast phases last as long as whole runs.

So every timed region runs under a ``SpeedSampler``.  A SIGALRM timer
interrupts petrel every ``PERIOD_S`` host seconds, and the handler times
a fixed pure-Python reference kernel (a bounded heap and a counter dict,
the kind of work petrel's event loop does).  The time spent in the
handler is left out of the region's time (``SpeedSampler.clock``), and
the rest is scaled by ``REFERENCE_S`` over the kernel's time near it:
the result reads as the seconds the region would take on a host where
the kernel takes ``REFERENCE_S``, which is about what it takes on the
benchmark's host when the neighbours are quiet.  A change to petrel
moves the scaled time as it moves host time; a change in the host's
speed moves both the region and the kernel, and cancels.

Python runs the handler between bytecodes of the main thread, so a
sample waits for a long C call to return; it never interrupts one.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
from time import perf_counter

# seconds one reference kernel takes on the benchmark's host when quiet
# (Intel Xeon, 2 vCPUs, Python 3.11); scaled times are host seconds at that speed
REFERENCE_S = 0.0025

# host seconds between two samples while a region runs
PERIOD_S = 0.1

KERNEL_STEPS = 3000


def reference_kernel() -> int:
    """Fixed work: push seeded keys through a heap bounded at 200 and count them in a dict."""
    rng = random.Random(7)
    heap: list = []
    counts: dict[int, int] = {}
    for i in range(KERNEL_STEPS):
        heapq.heappush(heap, (rng.random(), i))
        counts[i % 977] = counts.get(i % 977, 0) + 1
        if len(heap) > 200:
            heapq.heappop(heap)
    return len(heap)


def time_kernel() -> float:
    """Host seconds of one reference kernel, with the garbage collector off.

    A collection started by the kernel's allocations would walk petrel's
    objects, and make the kernel's time depend on the program it measures.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def warm_up() -> None:
    """Run the kernel until the interpreter has specialised its code."""
    for _ in range(5):
        time_kernel()


class SpeedSampler:
    """Samples host speed in and around a region; use as a context manager.

    One sample is taken on entering and one on leaving, and one every
    ``period`` host seconds in between.  Time a region with ``clock``,
    which leaves out the samples, then turn it into reference seconds
    with ``scale``.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.kernel_s: list[float] = []
        self.paused = 0.0
        self._previous = None

    def clock(self) -> float:
        """Host seconds, less those spent sampling."""
        return perf_counter() - self.paused

    def _sample(self, *_signal) -> None:
        start = perf_counter()
        self.kernel_s.append(time_kernel())
        self.paused += perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scale(self) -> float:
        """Reference seconds per host second over the region.

        The samples are evenly spaced in host time, so the work done in
        the region is its host time times the mean speed, 1 / kernel time.
        """
        return REFERENCE_S * statistics.fmean(1 / t for t in self.kernel_s)
