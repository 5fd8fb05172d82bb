"""Reference kernel: a fixed mix of the kinds of work fillreduce does.

On a shared host the same code runs 15-30% faster or slower from one
moment to the next, and the program's own time cannot tell that apart from
a change in the program. So a timed block runs the kernel on a timer signal
every PERIOD_S seconds, at the same moments as the program's work. The
block's time less the kernel's, divided by the kernel's mean time in that
block, cancels the host's speed; multiplying by NOMINAL_S turns the ratio
back into seconds on a host where the kernel takes NOMINAL_S.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, Callable

import numpy as np

NOMINAL_S = 0.015
PERIOD_S = 0.2


def kernel() -> float:
    """An interpreter loop, dict churn and small dense matmuls, in about
    equal shares: the mix whose time tracked all three workloads' best."""
    acc = 0
    for i in range(60_000):
        acc += (i * i) % 7
    table: dict[int, int] = {}
    for i in range(25_000):
        table[(i * 7919) % 65521] = i
    for i in range(0, 25_000, 2):
        table.pop((i * 7919) % 65521, None)
    # row sums near 2 keep b away from 0, where denormals would slow the loop
    a = np.linspace(0.0, 1.0, 160 * 160).reshape(160, 160) / 40
    b = np.ones((160, 16))
    for _ in range(90):
        b = np.tanh(a @ b)
    return acc + len(table) + float(b.sum())


def timed() -> float:
    """Seconds one kernel call takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def sampled(fn: Callable[[], Any]) -> tuple[Any, float, list[float]]:
    """Run ``fn`` with the kernel interleaved on a timer signal, the first
    time right at the start. Returns fn's result, the block's wall time and
    the kernel's times within it."""
    samples: list[float] = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(timed()))
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 0.001, PERIOD_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    return result, wall, samples


def in_kernel_units(wall: float, samples: list[float]) -> float:
    """A block's time less the kernel's, over the kernel's mean time."""
    if not samples:   # the block ended before the first tick
        samples = [timed()]
        wall += samples[0]
    return (wall - sum(samples)) / statistics.fmean(samples)
