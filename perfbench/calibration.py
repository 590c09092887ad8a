"""Host-speed calibration.

The benchmark runs on shared hosts whose speed drifts by a third or more
over tens of seconds, while the program's code stays the same.  A fixed
mix of work, independent of nmotto, is timed between repetitions; a
repetition's times are scaled by `REFERENCE_S / calibration time`, the
mean of the calibrations just before and just after it.  The scaled times
are what the repetition would have taken at the reference speed, so a
change to nmotto moves them and a change in the host's speed mostly does
not.  The raw times are kept in the provenance.

The mix follows the program's own: interpreted Python with small floats,
many calls into numpy on short arrays, and a few passes over arrays larger
than the caches.
"""

from __future__ import annotations

import time

import numpy as np

# Calibration time of the reference host (2-vCPU Intel Xeon VM, numpy 2.4,
# Python 3.11) at its faster speed.  Only the ratio to it is used.
REFERENCE_S = 0.25


def _interpreted(n: int) -> float:
    total = 0.0
    for i in range(n):
        total += (i % 7) * 0.5 - (i % 3) * 0.25
    return total


def _short_arrays(n: int) -> float:
    grid = np.linspace(0.0, 1.0, 64)
    total = 0.0
    for _ in range(n):
        total += float(np.exp(-grid).sum())
    return total


def _long_arrays(n: int) -> float:
    grid = np.linspace(0.0, 1.0, 1 << 21)
    total = 0.0
    for _ in range(n):
        total += float(np.cumsum(np.exp(-grid) * grid)[-1])
    return total


def measure() -> float:
    """Seconds the fixed mix takes now."""
    start = time.perf_counter()
    _interpreted(500_000)
    _short_arrays(25_000)
    _long_arrays(2)
    return time.perf_counter() - start
