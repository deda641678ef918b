"""Calibration kernel: how fast this machine runs right now.

The benchmark box is shared, and its speed drifts by tens of percent within
minutes.  In one process, one fixed sweep row went from 0.17 s to 0.28 s over
160 s, while its ratio to a 600-pulse version of this kernel stayed within
+-4%.  Each worker therefore runs the kernel after every operation.  It
scales its timings by ``REFERENCE_S`` over the kernel's median time.

The kernel is the benchmark's own code on fixed data, so no change to ionsynth
changes it.  It mixes the same kinds of work the program does: NumPy gathers,
scatters and complex arithmetic on arrays of a few hundred elements, and
Python-level object churn.
"""

from __future__ import annotations

import cmath
import time
from typing import NamedTuple

import numpy as np

# Median kernel time on the reference machine (2-core Intel Xeon VM at
# 2.0 GHz, Python 3.11.7, NumPy 2.4.6), so normalised timings read as seconds
# on that machine at a quiet moment.
REFERENCE_S = 0.010

_DIM = 1820  # state dimension at J_max 12
_PAIRS = 455
_PULSES = 300


class _Slot(NamedTuple):
    channel: int
    x: float
    theta: float


class Kernel:
    """A fixed pairwise-rotation replay; calling it returns its wall time."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20261017)
        self._tables = []
        for _ in range(9):
            perm = rng.permutation(_DIM)
            self._tables.append((perm[:_PAIRS], perm[_PAIRS:2 * _PAIRS], rng.uniform(0.5, 3.0, _PAIRS)))
        self._pulses = [
            (int(c), float(x), float(t))
            for c, x, t in zip(
                rng.integers(9, size=_PULSES), rng.uniform(0, 1, _PULSES), rng.uniform(-3, 3, _PULSES)
            )
        ]
        self._jitter = rng.uniform(-0.01, 0.01, _PULSES).tolist()

    def __call__(self) -> float:
        start = time.perf_counter()
        amps = np.zeros(_DIM, dtype=np.complex128)
        amps[0] = 1.0
        slots = []
        for (channel, x, theta), dx in zip(self._pulses, self._jitter):
            src, dst, omega = self._tables[channel]
            u = amps[src]
            v = amps[dst]
            ang = x * omega
            c = np.cos(ang)
            s = np.sin(ang)
            amps[src] = c * u + (-1j * cmath.exp(1j * theta)) * (s * v)
            amps[dst] = c * v + (-1j * cmath.exp(-1j * theta)) * (s * u)
            slots.append(_Slot(channel, max(0.0, x + dx), theta))
        if not np.isfinite(amps).all() or len(slots) != _PULSES:
            raise RuntimeError("calibration kernel produced a bad state")
        return time.perf_counter() - start
