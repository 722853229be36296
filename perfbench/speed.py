"""Machine-speed reference for the benchmark's timings.

On a shared machine the CPU's speed drifts between phases tens of
percent apart, each lasting about as long as a run, so raw wall times of
the same code differ from run to run by more than the changes the
benchmark should catch.  The timed loop therefore runs a fixed reference
kernel every ``SAMPLE_EVERY_S`` seconds of loop time, and every timing is
scaled by how long the kernel took around it:

    scaled = wall seconds * REF_S / (mean kernel time within WINDOW_S)

A scaled time is the time the call would have taken had the kernel taken
``REF_S``, its median time on the machine where the benchmark was defined.
The kernel uses no library code, so a change to the library moves the
scaled times exactly as it moves the wall times.  The kernel mixes the
kinds of work the workloads do (interpreter loop, small LAPACK
eigenproblems, BLAS-3 products and small numpy operations), because
different phases slow these down by different amounts.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's median time on a 2-core x86_64 VM (Python 3.11, numpy 2,
# OpenBLAS, one thread); a fixed constant, so scaled times keep one meaning
REF_S = 0.025
# loop time between two kernel runs
SAMPLE_EVERY_S = 0.3
# kernel runs this close (in seconds) to a timed span set its scale
WINDOW_S = 2.0

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_H = _A + _A.conj().T
_B = _rng.standard_normal((20, 20))
_C = _rng.standard_normal((400, 400))


def _kernel() -> None:
    s = 0
    for i in range(60000):
        s += i * i
    for _ in range(150):
        np.linalg.eigh(_H)
    for _ in range(3):
        _C @ _C
    for _ in range(300):
        (_B @ _B).sum()


class SpeedLog:
    """Kernel times with the clock readings at which they were taken."""

    def __init__(self):
        _kernel()  # first calls load and warm LAPACK/BLAS paths
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` of wall time that began at ``start``, scaled to REF_S."""
        at = np.asarray(self.at)
        took = np.asarray(self.took)
        near = (at >= start - WINDOW_S) & (at <= start + seconds + WINDOW_S)
        if not near.any():
            near = np.abs(at - start) == np.abs(at - start).min()
        return seconds * REF_S / float(took[near].mean())
