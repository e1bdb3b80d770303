"""Wall time rescaled to a fixed machine speed.

On a shared host the speed of one core drifts: on the 2-vCPU machine this
benchmark was written on, a fixed pure-Python loop ran up to 1.6 times slower
for stretches of 5 to 60 seconds, and the same 40-second run read 828 to
1193 items/s on consecutive runs.  So every duration the benchmark reports
is rescaled to a nominal speed.  Every ``INTERVAL_S`` (and around every timed
call) the clock times a small fixed reference kernel that does what latuni's
hot loops do: a method call, a tuple-keyed frozenset test and a dict lookup.
A timed call's wall duration is multiplied by ``NOMINAL_S / R``, where R is
the median of the last ``WINDOW`` kernel times.  The kernel does not use
latuni, so a change to latuni moves the rescaled times in full; a change
that slows every Python loop in the process, such as a global profiler hook,
would be hidden.
"""

from __future__ import annotations

import statistics
from collections import deque
from time import perf_counter

NOMINAL_S = 0.2e-3  # the reference kernel's time at nominal speed
INTERVAL_S = 0.01
WINDOW = 5


class _Kernel:
    __slots__ = ("pairs", "order", "table")

    def __init__(self):
        ids = [f"r{i}" for i in range(12)]
        self.pairs = [(x, y) for x in ids for y in ids]
        self.order = frozenset(self.pairs[::3])
        self.table = {p: p[0] for p in self.pairs}

    def leq(self, x, y):
        return (x, y) in self.order

    def run(self, rounds=10):
        hits = 0
        for _ in range(rounds):
            for x, y in self.pairs:
                if self.leq(x, y) and self.table[x, y] == x:
                    hits += 1
        return hits


class SpeedClock:
    def __init__(self):
        self._kernel = _Kernel()
        self._samples = deque(maxlen=WINDOW)
        self._due = 0.0
        for _ in range(WINDOW):
            self._sample()

    def _sample(self) -> None:
        start = perf_counter()
        self._kernel.run()
        now = perf_counter()
        self._samples.append(now - start)
        self._due = now + INTERVAL_S

    def _sample_if_due(self) -> None:
        if perf_counter() >= self._due:
            self._sample()

    def timed(self, fn, *args):
        """Call ``fn(*args)``; returns (rescaled seconds, result)."""
        self._sample_if_due()
        start = perf_counter()
        result = fn(*args)
        took = perf_counter() - start
        self._sample_if_due()
        return took * NOMINAL_S / statistics.median(self._samples), result
