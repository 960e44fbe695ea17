"""The host's speed, sampled while the tasks run.

The shared host this benchmark runs on changes speed by up to about 1.8x
from one fraction of a second to the next, so a task's wall time says as
much about the host as about qcontract.  ``Pacer`` times a fixed reference
computation, which shares no code with qcontract, every ``INTERVAL_S`` of
wall time from a ``SIGALRM`` handler, i.e. in the measuring process itself,
on the same CPU, in the middle of the task.  A task's *cost* is its wall time
less the handler's time, divided by the mean reference time sampled during
it: the task's length in reference computations.  It follows qcontract's
work and not the host's speed; the sampler adds 4 to 5% to each task's wall
time.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

#: wall seconds between two samples
INTERVAL_S = 0.05


def reference():
    """About 2 ms of what qcontract's tasks do most: ``Fraction`` arithmetic
    and dictionaries with tuple keys."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 160):
        f = Fraction(i, i + 7) * Fraction(3, i + 1) + Fraction(1, i)
        acc += f
        key = (i % 13, i % 5)
        table[key] = table.get(key, 0) + f.numerator
    return acc, sorted(table.items())


class Pacer:
    """Samples the reference time while entered; ``measure`` runs one task
    and returns (outcome, wall s, CPU s, cost in reference units), the
    seconds net of the sampler's."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.busy += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, run):
        first, busy = len(self.samples), self.busy
        w0, c0 = time.perf_counter(), time.process_time()
        outcome = run()
        wall = time.perf_counter() - w0
        cpu = time.process_time() - c0
        sampled = self.busy - busy
        during = self.samples[first:]
        if not during:  # a task shorter than INTERVAL_S: sample it now
            self._sample(None, None)
            during = self.samples[first:]
        wall, cpu = wall - sampled, cpu - sampled
        return outcome, wall, cpu, wall / statistics.mean(during)
