"""Machine-speed sampling for the benchmark's calibrated timings.

The benchmark runs on a few cores of a shared host, whose speed drifts
by up to 2x from one second to the next as other tenants load it.  A
wall-clock median of any run length then measures the host, not qdisk,
and readings taken only before and after a timed interval miss the swings
inside it.  So every process that times qdisk runs a Sampler: a timer
signal every PERIOD_S interrupts the program and times one fixed
pure-Python reference chunk (no qdisk code).  A reading's speed is
NOMINAL_S over the chunk's time, and a timed interval is rescaled to

    calibrated = (seconds - time spent in the sampler) * mean speed

i.e. the interval's length on a core that runs the reference at its
nominal speed.  The chunk does the kinds of work qdisk does (big-int
products, tuple-keyed dict updates, method calls on small objects) on
data built once at import, so a host slowdown stretches both alike; it
allocates nothing that outlives it and runs with the garbage collector
off, so its time does not depend on the heap the program left behind.
Standard library only; never imports qdisk.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# Seconds of one reference chunk on an uncontended core of the machine the
# benchmark was sized on (Intel Xeon VM, 2 vCPUs, CPython 3.11).  Only the
# ratio to it matters: it is the same constant on every commit.
NOMINAL_S = 0.00028
PERIOD_S = 0.02  # between two readings; about 2% of the time goes to them


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def mix(self, k):
        return (self.a * k + self.b) & 0xFFFF


_FACTORS = [(i * 7919 + 13) ** 5 for i in range(12)]
_TABLE = {(k & 15, k >> 4): k for k in range(256)}
_KEYS = list(_TABLE)
_PAIRS = [_Pair(k, 3 * k + 1) for k in range(128)]


def _chunk() -> int:
    acc = 0
    for rep in range(3):
        for i, x in enumerate(_FACTORS):
            for y in _FACTORS[i:]:
                acc ^= (x * y) >> 64
        for k, key in enumerate(_KEYS):
            _TABLE[key] = (_TABLE[key] + k + rep) & 0xFFFF
        for k in range(4):
            for p in _PAIRS:
                acc += p.mix(k + rep)
    return acc


class Sampler:
    """Reference readings taken by SIGALRM while the process runs.

    Use from the main thread only, one Sampler per process."""

    def __init__(self):
        self.speeds: list = []
        self.spent = 0.0
        self._previous = None

    def start(self) -> "Sampler":
        """Take a first reading now, so that every window has one, then
        one every PERIOD_S."""
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _chunk()
            self.speeds.append(NOMINAL_S / (time.perf_counter() - t0))
        finally:
            if enabled:
                gc.enable()
            self.spent += time.perf_counter() - start

    def mark(self) -> tuple:
        """Where an interval starts; pass it to window() at its end."""
        return len(self.speeds), self.spent

    def window(self, mark: tuple) -> dict:
        """Readings since mark: their count, mean speed and the seconds
        the sampler took.  An interval too short to hold a reading takes
        the mean of the last few readings before it."""
        count, spent = mark
        speeds = self.speeds[count:] or self.speeds[-5:]
        return {"readings": len(self.speeds) - count, "spent": self.spent - spent,
                "speed": statistics.fmean(speeds)}


def calibrate(seconds: float, window: dict) -> float:
    """seconds of an interval, less the sampler's share, at nominal speed."""
    return (seconds - window["spent"]) * window["speed"]
