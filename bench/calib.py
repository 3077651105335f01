"""Drift calibration with a fixed reference kernel.

The 2-CPU machine this benchmark was built on changes speed from second
to second (back-to-back runs of a fixed kernel fell into two clusters
1.8x apart), so raw seconds of identical work spread by tens of percent
between runs.  The kernel below
is timed right before and right after every operation.  Its two parts
are timed apart: exact Fraction arithmetic, the work of cyclotomic,
puiseux, contact and holder, and numpy complex-array steps, one in cache
and one over 1 MB, the work of metric.  Each part's time over its
nominal time is the machine's slowness for that kind of work; a workload
weighs the two by the kind of work it does (``numeric_share``).  An
operation's calibrated seconds are its raw seconds divided by the mean
slowness measured before and after it.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

#: Median times of the kernel's exact and numeric parts on the reference
#: machine (2 CPUs, Python 3.11.7, numpy 1.26), from 800 back-to-back calls
#: in one process: 1.09 ms and 1.10 ms, rounded.  Only their constancy
#: matters; they set the unit of calibrated seconds.
NOMINAL_EXACT_S = 0.0011
NOMINAL_NUMERIC_S = 0.0011

_SMALL = np.exp(1j * np.linspace(0.0, 6.0, 1024))
_LARGE = np.exp(1j * np.linspace(0.0, 6.0, 65536))


def kernel() -> tuple[float, float]:
    """Run the reference kernel once; return the wall seconds of its exact
    and its numeric part."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 180):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    middle = time.perf_counter()
    z = _SMALL
    for _ in range(24):
        z = z * _SMALL + 0.5
        z = z / np.abs(z)
    w = _LARGE * _LARGE + 0.5
    w = w / np.abs(w)
    if not float(np.abs(z).sum() + np.abs(w).sum()) > 0 or total <= 0:
        raise RuntimeError("reference kernel produced a wrong value")
    return middle - start, time.perf_counter() - middle


class Clock:
    """Times calls between kernel runs; each kernel run serves the call
    before it and the call after it."""

    def __init__(self, numeric_share: float):
        self.numeric_share = numeric_share
        self.kernel_s = 0.0  # wall seconds of the last kernel run
        self.slowness = self._run_kernel()

    def _run_kernel(self) -> float:
        exact, numeric = kernel()
        self.kernel_s = exact + numeric
        w = self.numeric_share
        return (1 - w) * exact / NOMINAL_EXACT_S + w * numeric / NOMINAL_NUMERIC_S

    def measure(self, fn):
        """Return (result, raw seconds, calibration factor) of fn()."""
        before = self.slowness
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        self.slowness = self._run_kernel()
        return result, raw, 2 / (before + self.slowness)
