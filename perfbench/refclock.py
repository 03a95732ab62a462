"""A reference clock: times in units of a fixed numpy kernel, measured next to the work.

The cores this benchmark was tuned on change speed by up to 1.8x for
stretches of minutes, and the slowdown hits a small-array numpy loop and
the solver alike. A run in a slow stretch then reads slow in every repeat,
and no estimator over wall times can tell it from a slower program. The
clock runs ``kernel`` (the benchmark's own code, no irsim) right after each
timed piece of work, for a set share of the work's time, and converts the
work's wall time into kernels. Times reported "at the reference speed" are
that count of kernels times ``KERNEL_REF_S``, a fixed scale near the
kernel's median time on the reference box. A program that does more work
takes more kernels; a machine that slows down slows the kernel by about as
much.
"""

from __future__ import annotations

import math
import time

import numpy as np

KERNEL_REF_S = 0.002  # seconds per kernel, near its median on the reference box (README)
SHARE = 0.25  # kernel time run after each piece of work, as a share of the work's time
_RNG = np.random.default_rng(0)
_B = _RNG.standard_normal((16, 2)) + 1j * _RNG.standard_normal((16, 2))
_CENTER = _RNG.standard_normal(16) + 1j * _RNG.standard_normal(16)


def kernel() -> np.ndarray:
    """Fixed work of the kind the solver does at N=16.

    A fixed number of accelerated projected-gradient steps on the product
    of unit disks, with a rank-2 penalty matrix, written out here so that
    no change to the program changes it.
    """
    b, B, Bh = _CENTER, _B, _B.conj().T
    x = b / np.maximum(np.abs(b), 1.0)
    y = x
    for _ in range(120):
        grad = (y - b) + 0.02 * (B @ (Bh @ y))
        x_new = y - 0.5 * grad
        x_new = x_new / np.maximum(np.abs(x_new), 1.0)
        y = x_new + 0.3 * (x_new - x)
        x = x_new
    return x


class RefClock:
    """Measures the kernel's current time after each piece of work."""

    def __init__(self) -> None:
        self.last: float | None = None  # seconds per kernel at the end of the previous piece

    def speed(self, seconds: float, share: float = SHARE) -> float:
        """Seconds per kernel now, run for about ``share`` of ``seconds``."""
        n = max(1, math.ceil(share * seconds / KERNEL_REF_S))
        t0 = time.perf_counter()
        for _ in range(n):
            kernel()
        return (time.perf_counter() - t0) / n

    def mark(self, seconds: float, share: float = SHARE) -> None:
        """Measure the kernel now, for about ``share`` of ``seconds``, as the next piece's "before"."""
        self.last = self.speed(seconds, share)

    def to_ref(self, seconds: float, share: float = SHARE) -> float:
        """Convert ``seconds`` of work that just ended into seconds at the reference speed.

        The work is scored against the mean of the kernel times measured
        just before it (after the previous piece) and just after it.
        """
        after = self.speed(seconds, share)
        before = after if self.last is None else self.last
        self.last = after
        return seconds / (0.5 * (before + after)) * KERNEL_REF_S
