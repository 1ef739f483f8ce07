"""Timing that follows the code, not the speed of a shared host.

On a host whose cores are shared with other tenants, the speed of this
process drifts by up to 2x within a second. Every timed region is therefore
sampled: a short probe (a fixed mix of Python calls and small numpy
operations, the mix the simulator's scalar code runs) runs just before the
region, every SAMPLE_PERIOD_S of wall time inside it from a SIGALRM
handler, and just after it. The probes' own time is taken out of the
region's wall time, and the rest is rescaled by the mean measured speed to
the time the region takes on a core where the probe takes
PROBE_REFERENCE_S.

The rescaling is approximate: depending on what the other tenants run, it
was seen to under- or over-correct by up to 5 % when the core ran at half
speed. So a run reports the median over the quarter of its timed regions
that the host slowed least (``steady_median``).
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
from time import perf_counter

import numpy as np

# Probe time on an unloaded core of the x86_64 host the benchmark was tuned
# on (Python 3.11, numpy 2.4): the fastest tenth of 3000 probes.
PROBE_REFERENCE_S = 1.0e-3
SAMPLE_PERIOD_S = 0.05


def _probe_step(x, k):
    y = x * 1.0001 + k
    return float(np.sum(y)) + math.log1p(abs(float(y[0])))


def probe_s() -> float:
    """Seconds for one probe, about a millisecond at reference speed."""
    x = np.arange(8.0)
    total = 0.0
    start = perf_counter()
    for k in range(200):
        total += _probe_step(x, k) + math.sqrt(k)
    return perf_counter() - start


def timed(fn, *args, sample_inside: bool = True):
    """Run fn(*args): (result, wall seconds, seconds at reference speed).

    The wall time excludes the probes run inside the region. Traced regions
    pass ``sample_inside=False``, so that no probe time lands in a span.
    """
    gc.collect()
    inside = []
    before = probe_s()
    if sample_inside:
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: inside.append(probe_s()))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    start = perf_counter()
    try:
        result = fn(*args)
    finally:
        wall = perf_counter() - start
        if sample_inside:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
    after = probe_s()
    busy = wall - math.fsum(inside)
    speed = statistics.fmean(PROBE_REFERENCE_S / p for p in (before, *inside, after))
    return result, busy, busy * speed


def steady_median(samples: list[tuple[float, float]], least: int = 3) -> float:
    """Median rescaled time over the least-slowed quarter of the samples.

    ``samples`` are (wall, rescaled) pairs from ``timed``; at least ``least``
    of them are used.
    """
    by_slowdown = sorted(samples, key=lambda pair: pair[0] / pair[1])
    keep = by_slowdown[: max(least, len(samples) // 4)]
    return statistics.median(scaled for _, scaled in keep)
