"""How fast the host runs right now, from a fixed calibration kernel.

The machine the benchmark runs on changes speed by itself, by up to ~1.5x
in phases of seconds to minutes, and both the wall time and the CPU time
of any work stretch with it. `kernel_seconds()` times a fixed piece of
work that does not touch heatforms: a pure-Python loop, 3-D FFTs, small
symmetric eigenproblems and elementwise numpy passes, the kinds of work
the workloads spend their time in. Its time, run right next to a timed
item, says how slow the host was while the item ran:

    corrected = measured * REFERENCE_S / kernel time

REFERENCE_S is the kernel's typical time on the host the baseline was
measured on (2 vCPUs of an Intel Xeon, fast phase), so corrected figures
there read about like wall-clock figures. A change to heatforms does not
change the kernel, so it moves corrected figures exactly as it moves
wall-clock ones at a steady host speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.0055

_rng = np.random.default_rng(20240601)
_cube = _rng.standard_normal((32, 32, 32))
_sym = _rng.standard_normal((40, 40))
_sym = _sym + _sym.T
_vec = _rng.standard_normal(20000)


def kernel_seconds() -> float:
    """Wall time of one pass of the calibration kernel (~5.5 ms)."""
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    for _ in range(3):
        np.fft.fftn(_cube)
    for _ in range(4):
        np.linalg.eigvalsh(_sym)
    for _ in range(20):
        np.cumsum(np.exp(_vec) * _vec)
    return time.perf_counter() - start


def slowdown() -> float:
    """Median kernel time over REFERENCE_S, from five passes."""
    return statistics.median(kernel_seconds() for _ in range(5)) / REFERENCE_S
