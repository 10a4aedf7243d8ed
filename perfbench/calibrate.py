"""Machine-speed calibration for the benchmark's timings.

The shared machine this benchmark was built on changes speed by up to
40 % from one minute to the next, for all code at once. Every timed
operation is therefore bracketed by two runs of a fixed calibration
loop, and its latency is reported in reference seconds: the measured
seconds times REFERENCE_S over the mean of the two calibration times.
Over a 300 s trace with such swings, the sum of per-operation medians
spread by 9 % between 15-second windows in plain seconds and by 2 % in
reference seconds.

The loop mixes interpreted integer and list work with small numpy calls,
as the program does. It never calls feqlab, so no program change moves
it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The loop's typical time on the reference machine (2-core Intel Xeon at
# 2.1 GHz, Python 3.11.7, numpy 2.4.6). Reference seconds read close to
# plain seconds there; elsewhere they differ by a constant factor.
REFERENCE_S = 5.0e-4


def _loop() -> int:
    table = list(range(64))
    acc = 0
    for i in range(3000):
        acc += table[(i * 7) & 63] * (i & 15)
    a = np.arange(16, dtype=complex)
    for _ in range(30):
        a = np.abs(a * 1.0001) + 0j
    return acc


def sample() -> float:
    """Seconds one calibration loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """Factor turning seconds measured alongside these calibration samples
    into reference seconds."""
    return REFERENCE_S / statistics.median(samples)
