"""The speed of a shared host during a run, from a fixed reference loop.

On a virtual machine that shares its cores with other tenants, the same
tmlab command takes 10-30% more or less time from one minute to the next.
The reference loop is a fixed mix of numpy calls on 129-element arrays and
Python dict and string work, like the work of tmlab's command handlers, and
does not use tmlab. Sampled between operations, at most every
SAMPLE_EVERY_S, its median time tracks how fast the host runs the program
in that run.

``scale`` converts a run's seconds to seconds at a fixed reference speed:
seconds * REFERENCE_S / median loop time. REFERENCE_S is the loop's median
on the 2-vCPU machine of the README's reference numbers, so scaled times
read close to the wall times measured there. A change to tmlab moves the
scaled times as it moves the wall times; a slow spell of the host moves
the loop and the program alike and leaves them unchanged.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SAMPLE_EVERY_S = 0.1
REFERENCE_S = 0.0043


def reference_loop():
    total = 0.0
    table = {}
    for _ in range(90):
        t = np.linspace(-7.0, 4.5, 129)
        u = np.exp(-t * t / 8.0)
        total += float(np.sum(np.abs(np.diff(u)) ** 2 / np.diff(t)))
    for i in range(4500):
        table[i % 97] = table.get(i % 97, 0) + len(str(i))
    return total + sum(table.values())


class HostSpeed:
    """Samples of the reference loop's time, taken at most every SAMPLE_EVERY_S."""

    def __init__(self):
        self.samples = []
        self._last = -float("inf")

    def maybe_sample(self):
        now = time.perf_counter()
        if now - self._last < SAMPLE_EVERY_S:
            return
        reference_loop()
        self._last = time.perf_counter()
        self.samples.append(self._last - now)

    def loop_s(self):
        """Median time of the reference loop over the run (one sample at least)."""
        if not self.samples:
            self.maybe_sample()
        return statistics.median(self.samples)

    def scale(self, seconds):
        return seconds * REFERENCE_S / self.loop_s()
