"""A fixed computation that calibrates timings to the current speed of the CPU.

The virtual CPUs the benchmark runs on change speed by up to about 70 % over
seconds to minutes, each CPU on its own.  A timed operation alone cannot
tell a slower program from a slower CPU.  The benchmark therefore pins itself
and its children to one CPU (``env.py``) and runs this yardstick before every
timed operation of a pass and after the last one.  Each time in the pass is
scaled by ``REFERENCE_S`` over the mean of the pass's yardstick times.  The
result is in calibrated seconds: the time the operation would take on a CPU
that runs the yardstick in ``REFERENCE_S``.  The mean over a pass, rather
than the two samples next to an operation, follows the speed over a few
seconds without taking on the noise of single samples.

The yardstick is complex matrix products and a Hermitian eigensolver through
one-threaded BLAS, about two thirds of its time in the products.  Timed next
to both workloads for seven minutes each, this tracked their speed best of
the parts tried: JSON encoding of floats, a loop over a dictionary, a pass
over a 16 MB array and many small numpy calls each tracked it worse, alone
or mixed in.  Its inputs are fixed and independent of the workload seed.  It
does not use ``krausfock``, so no change to the program can change it.
"""

from __future__ import annotations

import time

import numpy as np

# A typical yardstick time on the 2-vCPU x86_64 VM where the baseline in
# README.md was measured (1.7 ms when its CPU runs fast, about 3 ms when slow).
REFERENCE_S = 0.0025
REPEATS = 3


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(20150605)
        a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        self._a = a
        self._h = a + a.conj().T

    def _once(self) -> float:
        start = time.perf_counter()
        for _ in range(32):
            self._a @ self._a
        np.linalg.eigh(self._h)
        return time.perf_counter() - start

    def measure(self) -> float:
        """Fastest of ``REPEATS`` runs, which drops interrupts but not the CPU's state."""
        return min(self._once() for _ in range(REPEATS))


def scale(samples: list[float]) -> float:
    """Factor from wall seconds to calibrated seconds, given yardstick times."""
    return REFERENCE_S * len(samples) / sum(samples)
