"""Host-speed kernel: a fixed piece of work timed next to the measured work.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
tens of percent in phases that last from seconds to minutes; CPU time
follows wall time, so the drift is in the hardware, not the scheduler.  The
kernel does warpcmc's kind of work (interpreter arithmetic around numpy
calls on grid-sized arrays and a small matrix product) but calls nothing of
warpcmc, so no change to the library moves it.  The worker times it between cases;
each case latency is divided by the kernel time taken around it and
multiplied by ``REFERENCE_S``, so case and batch times are reported at a
fixed host speed.
"""

from __future__ import annotations

import math
import time

import numpy as np

# median kernel time on the machine the benchmark was tuned on (2 vCPUs of
# an Intel Xeon, Python 3.11, numpy 2.4); normalized times read as seconds
# on that machine at its median speed
REFERENCE_S = 0.0032

_X = np.linspace(0.05, 1.0, 48)
_A = np.cos(np.outer(np.arange(48.0), _X))


def kernel() -> float:
    acc = 0.0
    for k in range(400):
        y = np.sqrt(_X * _X + 0.01 * k)
        acc += float(np.dot(_A @ y, _X)) * 1e-3
        for j in range(8):
            acc = math.sqrt(acc * acc + j) * 0.5
    return acc


def time_kernel() -> float:
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def scale_cases(latencies: list[float], kernels: list[float]) -> list[float]:
    """Case latencies at reference speed; case i ran between kernels i and i+1."""
    return [t * REFERENCE_S / (0.5 * (kernels[i] + kernels[i + 1])) for i, t in enumerate(latencies)]
