"""A fixed yardstick that tracks how fast this machine runs at each moment.

On shared virtual machines the same Python code runs at very different speeds
from one minute to the next: on the 2-vCPU machine this benchmark was written
on, a fixed loop took anywhere from 0.010 to 0.020 s in 5-second windows, and
the spread between 60-second windows was no smaller than between 5-second
ones. No run length makes raw wall-clock times steady there.

So the benchmark times a fixed pure-Python loop shaped like rspin's work
(sorted tuples, string keys, a dict, exact fractions; it never calls rspin)
every :data:`EVERY_S` seconds between requests, and reports each timed unit
of work at the reference speed: its raw duration times ``REFERENCE_S`` over
the mean of the yardstick samples taken just before and just after it. A
change that makes rspin do more work still shows in full; a machine that is
slower for a while does not. Raw times are kept in the full record next to
the scaled ones.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction
from typing import List

clock = time.perf_counter

# The yardstick's duration at the reference speed: its median on the machine
# the benchmark was written on (Intel Xeon, 2 vCPUs, Python 3.11.7).
REFERENCE_S = 0.0035
EVERY_S = 0.25


def _yardstick() -> Fraction:
    """Work shaped like rspin's: sorted twist tuples, string keys, a dict, fractions."""
    seen = {}
    total = Fraction(0)
    for i in range(1, 300):
        twists = tuple(sorted((i % 7, i % 11, i % 13, i % 5)))
        key = "g0:r=%d:a=%s" % (i % 9, ",".join(map(str, twists)))
        seen[key] = seen.get(key, Fraction(0)) + Fraction(i % 5, i % 97 + 1)
        total += seen[key]
    return total


class Speed:
    """Yardstick samples over a run, and the scale factor for any interval."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.durations: List[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = clock()
        _yardstick()
        t1 = clock()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self._last = t1

    def maybe_sample(self) -> None:
        """Take a sample if the last one is older than :data:`EVERY_S`."""
        if clock() - self._last >= EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the machine's speed around ``[start, end]``."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        picked = [self.durations[i] for i in (before, after) if 0 <= i < len(self.times)]
        return REFERENCE_S * len(picked) / sum(picked)

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)
