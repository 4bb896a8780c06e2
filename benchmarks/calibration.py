"""Reference time: wall time rescaled by a fixed calibration kernel.

Shared hosts can switch for seconds at a time between speeds far apart
(about 1.75x on a shared 2-vCPU Xeon host). The benchmark times this kernel
next to every measurement and reports time in reference units: wall time
multiplied by REFERENCE_MS over the kernel's time. The kernel runs outside
focklab, so a change to the program moves reference times as it moves wall
time, while most of the host's drift cancels.
"""
from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_MS = 0.5   # kernel time that defines one reference millisecond


class Calibration:
    """A fixed kernel mixing what the cases spend their time on: interpreted
    scalar arithmetic, complex exponentials over a few thousand points and a
    small matrix product. Calling it returns its duration in ns."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = 1j * rng.standard_normal(3000)
        self._m = rng.standard_normal((48, 48))

    def __call__(self) -> int:
        t0 = time.perf_counter_ns()
        acc = 0.0
        for i in range(1500):
            acc += math.sqrt(i + 1.0)
        for _ in range(5):
            np.exp(self._x)
            self._m @ self._m
        return time.perf_counter_ns() - t0


def to_reference(elapsed_ns: float, kernel_ns: float) -> float:
    """Reference milliseconds for a wall time, given the kernel's time then."""
    return elapsed_ns * REFERENCE_MS / kernel_ns
