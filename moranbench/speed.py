"""Scaling measured times to a reference speed.

On shared hosts the speed of pure-Python code drifts by up to 2x in phases
of seconds to minutes, and thread CPU time drifts with wall time.  A fixed
pure-Python calibration kernel drifts with it, so measured time * K_REF_S / k,
with k the kernel's time around the measurement, cancels the drift: on a
fixed op, p90/p10 of block medians fell from 1.78 raw to 1.03 scaled.
K_REF_S is the kernel's typical time on the 2-vCPU machine the benchmark was
sized on.
"""

import time
from fractions import Fraction

K_REF_S = 250e-6


def calibration_kernel():
    """Fixed pure-Python work: Fraction arithmetic, dict updates, formatting."""
    acc, counts = Fraction(0), {}
    for i in range(1, 60):
        acc += Fraction(i, 7 * i + 1)
        counts[i % 13] = counts.get(i % 13, 0) + i
    return f"{acc}{counts}"


def calibrate() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


class Clock:
    """Scale factor K_REF_S / k for what ran since the last call.

    k is the mean of the kernel times taken just before and just after.
    """

    def __init__(self):
        self.last = calibrate()

    def factor(self) -> float:
        now = calibrate()
        factor = K_REF_S / ((self.last + now) / 2)
        self.last = now
        return factor
