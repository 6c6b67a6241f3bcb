"""How fast this machine runs Python right now.

The benchmark shares a few cores of a host with other jobs, and the speed it
gets drifts by a fifth or more from one minute to the next.  A pass timed
alone carries that drift.  `SpeedProbe` times a small fixed kernel four
times a second while a pass runs (from a SIGALRM handler, so the samples
cover the whole pass, not just its ends), and `scale()` turns the pass time
into reference seconds: the time the pass would take on a machine that runs
the kernel in exactly `REFERENCE_KERNEL_S`.

The kernel is a breadth-first search over integers with a set and a deque,
the same kind of work as the checker's search.  It allocates no object the
cyclic garbage collector tracks, and the collector is off while it runs, so
its time does not depend on the size of the checker's heap.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time
from collections import deque

# nominal kernel time that reference seconds are scaled to
REFERENCE_KERNEL_S = 0.005
KERNEL_STATES = 16000
TICK_S = 0.25


def kernel(n: int = KERNEL_STATES) -> int:
    """Breadth-first search from 0 until n states are seen."""
    m = 1_000_003
    seen = {0}
    queue = deque(seen)
    while len(seen) < n:
        s = queue.popleft()
        for t in ((s * 3 + 1) % m, (s * 7 + 5) % m, (s + 7919) % m):
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return len(seen)


def time_kernel() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples the kernel every TICK_S seconds of wall time while active.

    `spent` is the wall time the samples took; subtract it from the time
    of the work they interrupted."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(time_kernel())
        self.spent += time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, seconds: float) -> float:
        """`seconds` measured while this probe sampled, in reference seconds.

        The work done in a stretch of time is proportional to the speed,
        1 / kernel time, integrated over it; the samples are evenly spaced
        in time, so the mean speed is 1 / the harmonic mean of the samples.
        Their median would miss a burst of a few seconds that the work did
        not miss."""
        if not self.samples:
            self.sample()
        return seconds * REFERENCE_KERNEL_S / statistics.harmonic_mean(self.samples)
