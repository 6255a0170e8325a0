"""Machine-speed reference for the timed metrics.

A shared host runs the same code at speeds that drift by tens of percent
over seconds to minutes, so raw seconds from two sets of runs differ even
when the program does not.  The harness therefore times a fixed reference
kernel just before and just after every timed interval and scales the
interval by ``REF_KERNEL_S`` over the kernel's mean time.  A scaled figure
reads as seconds on a machine where the kernel takes ``REF_KERNEL_S``.  The
scaling cancels most of the host's slow drift; it tracks the short runs of the
table workloads better than a single ten-second invocation.

Interpreter-bound and memory-bound code are slowed by different kinds of
host contention, and the workloads mix both (mpmath and Python loops in the
tables, NumPy sweeps in the polar link).  The kernel therefore mixes
pure-Python float arithmetic with NumPy element-wise sweeps over an array
larger than a core's L2 cache.  It calls no BLAS routine and allocates no
array while it runs, so the program's BLAS threads and imports do not alter
it.
"""

from __future__ import annotations

import time

import numpy as np

PY_STEPS = 1_000_000
NP_SWEEPS = 25
REF_KERNEL_S = 0.1

_X = np.linspace(0.0, 1.0, 1_000_000)
_Y = np.empty_like(_X)


def kernel_seconds() -> float:
    """Wall time of a fixed logistic-map loop plus fixed array sweeps."""
    t0 = time.perf_counter()
    x, total = 0.5, 0.0
    for _ in range(PY_STEPS):
        x = 3.7 * x * (1.0 - x)
        total += x
    for _ in range(NP_SWEEPS):
        np.multiply(_X, 3.7, out=_Y)
        np.multiply(_Y, _X, out=_Y)
        total += _Y.sum()
    return time.perf_counter() - t0


class SpeedClock:
    """Kernel samples taken around timed intervals.

    Make one right before the first interval.  After each interval call
    ``factor()``, which samples the kernel again and returns the scale for
    the interval just ended; consecutive intervals share the sample between
    them.  ``mean_factor()`` scales work spread over all the intervals.
    """

    def __init__(self):
        kernel_seconds()  # warm the loop before its first timed run
        self.kernel_s = [kernel_seconds()]

    def factor(self) -> float:
        before = self.kernel_s[-1]
        self.kernel_s.append(kernel_seconds())
        return 2.0 * REF_KERNEL_S / (before + self.kernel_s[-1])

    def mean_factor(self) -> float:
        return REF_KERNEL_S * len(self.kernel_s) / sum(self.kernel_s)
