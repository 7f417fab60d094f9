"""Calibration kernel: a fixed piece of work that measures the machine's speed.

On a shared VM the speed of the host drifts by 20-40% over tens of seconds,
and CPU time drifts with wall time, so two runs of the same code minutes
apart disagree by more than a real regression.  The worker runs this kernel
after every operation; run.py divides each timing by the kernel's time in
the same stretch of the run and multiplies by ``REFERENCE_S``.  A timing so
scaled reads in seconds on a machine that runs the kernel in exactly
``REFERENCE_S``, and it moves only when the package's own work changes: the
kernel is part of the benchmark, never of the package.

The kernel is 600 small numpy calls (a 32 x 32 product and a tanh).  Of
the kernels tried on a 2-vCPU Xeon VM, this one tracked the drift of all
three workloads best; kernels of interpreted loops and memory-bound kernels
tracked it worse (see README.md).
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2, one
# BLAS thread), rounded: a scaled timing reads as if on that machine.
REFERENCE_S = 0.01

_MATRIX = np.linspace(0.0, 1.0, 32 * 32).reshape(32, 32)
_CALLS = 600
_EXPECTED = None


def kernel() -> float:
    """The fixed work; returns a checksum that never changes."""
    m = _MATRIX
    for _ in range(_CALLS):
        m = np.tanh(m @ _MATRIX * 0.01)
    return float(m.sum())


def timed() -> float:
    """Seconds one kernel call takes; raises if the kernel's result changed."""
    global _EXPECTED
    start = time.perf_counter()
    value = kernel()
    elapsed = time.perf_counter() - start
    if _EXPECTED is None:
        _EXPECTED = value
    elif value != _EXPECTED:
        raise RuntimeError("calibration kernel result changed")
    return elapsed
