"""Calibration of timings against the speed of the machine at that moment.

On a shared virtual machine the speed of pure Python code drifts by up to a
factor of two within seconds, independently of the program measured.  To
compare runs made at different moments, the benchmark runs a fixed
pure-Python loop, `probe`, every few milliseconds while the workload runs,
and reports each time as it would read at a reference speed:

    time at reference speed = measured time * REFERENCE_S / probe time

The probe does not use lenscalc, so a change to lenscalc moves the scaled
time as it moves the measured one.  Raw measured times are reported
alongside.
"""

from __future__ import annotations

import bisect
import signal
import time
from math import gcd

# The probe's duration at the reference speed: about its median duration on
# a 2-core x86-64 virtual machine under Python 3.11.
REFERENCE_S = 0.0002
# Seconds between two probes.
INTERVAL_S = 0.02

_BIG = 3**80
_MOD = (1 << 61) - 1


class _Ratio:
    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        g = gcd(num, den)
        self.num = num // g
        self.den = den // g


def probe() -> int:
    """Fixed work resembling lenscalc's mix: small objects, attribute
    access, tuples, gcd and big-integer arithmetic.  It imports nothing
    that lenscalc imports, so a cold-started interpreter can run it before
    importing lenscalc."""
    acc = 0
    prev = _Ratio(0, 1)
    for i in range(1, 201):
        r = _Ratio(i * 6, i + 9)
        acc += (r.num * prev.den < prev.num * r.den) + (r.num * _BIG) % _MOD
        acc ^= hash((r.num, r.den, acc & 255)) & 1023
        prev = r
    return acc


def probe_time(repeats: int = 3) -> float:
    """Fastest of `repeats` timed probe runs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        probe()
        best = min(best, time.perf_counter() - t0)
    return best


class Sampler:
    """Runs `probe_time` from a SIGALRM handler every INTERVAL_S seconds
    while active, and keeps when each sample started and ended and what it
    measured."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.samples.append(probe_time())
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(raw, scaled) seconds from `start` to `end`, both without the
        samples taken in between.  The samples cut the interval into
        pieces; each piece is scaled by the mean of the samples on either
        side of it."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        raw = scaled = 0.0
        t = start
        for k in range(first, last + 1):
            stop = self.starts[k] if k < last else end
            before = self.samples[max(k - 1, 0)]
            after = self.samples[min(k, len(self.samples) - 1)]
            raw += stop - t
            scaled += (stop - t) * 2 * REFERENCE_S / (before + after)
            if k < last:
                t = self.ends[k]
        return raw, scaled
