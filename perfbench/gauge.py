"""Speed gauge: scales measured times to the reference speed of the host.

The host gives this process a share of a CPU whose speed drifts: a fixed
pure-Python loop ranges over 0.7-1.1x of its median within 30 seconds, with
CPU time equal to wall time, and whole minutes run 25-40% faster or slower
than others.  The drift is per core (two such loops on the two cores do not
move together), so it can only be read on the core that does the work.

The gauge reads the speed with a fixed kernel of pure-Python and NumPy work
that calls nothing of levysym.  ``Gauge.measure`` times one call and, while
the call runs, interrupts it every ``PERIOD`` seconds (SIGALRM) to time
``TICK_CALLS`` kernel calls; it also reads the kernel just before and after
the call.  The call's time, without the readings, is divided by the mean time
per kernel call and multiplied by ``REFERENCE_S``, the kernel's median time
per call on the reference machine (README, Machine), so a scaled time reads
in seconds at that machine's median speed: a slow stretch of the host
stretches the call and the kernel alike, while a slower or faster program
moves the call alone.  ``Gauge.scale`` does the same for an interval that ran
in another process (the set-up probes), from readings right before and after it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: median seconds of one ``kernel()`` call on the reference machine
REFERENCE_S = 0.00230
#: seconds between kernel readings inside a measured call
PERIOD = 0.05
#: kernel calls per reading inside a measured call
TICK_CALLS = 2
#: kernel calls per reading between calls; ``scale`` reads for about
#: ``SHARE`` of its interval, and at least this many
MIN_CALLS = 8
SHARE = 0.1

_WORDS = np.arange(4096, dtype=np.uint64)
_ANGLES = np.linspace(0.0, 75.0, 4096)
_MULT = np.uint64(0xD2B74407B1CE6E93)
_SHIFT = np.uint64(29)


def kernel() -> int:
    """About half interpreter work (integer arithmetic, dict stores) and half
    NumPy work on 4 096-element arrays (uint64 multiply-xorshift, cosines)."""
    acc = 0
    table = {}
    for i in range(5000):
        acc += (i * 2654435761) & 0xFFFF
        table[i & 255] = acc
    x = _WORDS.copy()
    for _ in range(100):
        x = (x * _MULT) ^ (x >> _SHIFT)
    return acc + int(x[-1] & np.uint64(0xFF)) + int(np.cos(_ANGLES).sum() > 0)


def reading(calls: int) -> float:
    """Mean seconds per kernel call over ``calls`` calls, timed now."""
    t0 = time.perf_counter()
    for _ in range(calls):
        kernel()
    return (time.perf_counter() - t0) / calls


class Gauge:
    """Scales consecutive intervals by the kernel's speed during and around each."""

    def __init__(self) -> None:
        self.last = reading(MIN_CALLS)

    def measure(self, fn):
        """Call ``fn()``: (its result, its seconds, its seconds at reference speed)."""
        spent = 0.0
        calls = 0

        def tick(signum, frame):
            nonlocal spent, calls
            t0 = time.perf_counter()
            for _ in range(TICK_CALLS):
                kernel()
            spent += time.perf_counter() - t0
            calls += TICK_CALLS

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        seconds = t1 - t0 - spent
        before, self.last = self.last, reading(MIN_CALLS)
        per_call = (spent + (before + self.last) * MIN_CALLS) / (calls + 2 * MIN_CALLS)
        return result, seconds, seconds * REFERENCE_S / per_call

    def scale(self, seconds: float) -> float:
        """``seconds`` of an interval that has just ended in another process,
        at reference speed, from readings before it and right after it."""
        calls = max(MIN_CALLS, round(SHARE * seconds / self.last))
        before, self.last = self.last, reading(calls)
        return seconds * REFERENCE_S / (0.5 * (before + self.last))
