"""Host-speed reference for timing on a shared machine.

On a shared host the same command can take 1.6 times longer for minutes at a
time while neighbours load the machine.  No statistic over one run removes
that, so the benchmark times a fixed reference kernel next to every command
and reports times scaled to a nominal host speed:

    scaled time = measured time * NOMINAL_MS / (reference time in ms)

The kernel does the kinds of work reachwarp does (small matrix products, an
argmax over a score table, a short Python loop of 3x3 steps) but none of its
code, so no change to the program can move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# median reference time on the 2-vCPU Intel Xeon (2.1 GHz) host the bounds in
# BENCHMARK.json were set on; scaled times read as times on that host
NOMINAL_MS = 6.5


class Reference:
    """The fixed reference kernel and its timer."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._X = rng.standard_normal((2000, 3))
        self._B = rng.standard_normal((3, 4))
        self._E = 0.99 * np.eye(3)
        self._c = np.ones(3)

    def seconds(self) -> float:
        """Duration of one pass of the kernel."""
        started = perf_counter()
        for _ in range(20):
            idx = np.argmax((self._X @ self._B) @ self._B.T, axis=1)
            np.flatnonzero(np.diff(idx))
            y = np.zeros(3)
            for _ in range(100):
                y = self._E @ y + self._c
        return perf_counter() - started


def scale(seconds: float, reference_s: float) -> float:
    """A measured time scaled to the nominal host speed."""
    return seconds * NOMINAL_MS / (1e3 * reference_s)
