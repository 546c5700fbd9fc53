"""How fast the host runs right now, timed on a fixed reference kernel.

On a shared host the same job runs up to 1.6x slower for minutes at a
time while neighbours are busy; a pure-Python loop slows with it, and so
does CPU time. The benchmark times this kernel before and after every job
and set-up probe, and reports end-to-end times at the speed where the
kernel takes NOMINAL_S:

    time at nominal speed = measured time * NOMINAL_S / kernel time

The kernel is a fixed mix of the two kinds of work the workloads do:
interpreter-bound small-array arithmetic and single-threaded BLAS matmuls.
It uses nothing from adamqlr, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the 2-core x86 VM the benchmark was written on,
# when its neighbours were idle.
NOMINAL_S = 0.010

_rng = np.random.default_rng(0)
_SMALL = np.ones((4, 4))
_X = _rng.standard_normal((400, 784))
_W = _rng.standard_normal((784, 50))


def reference_s() -> float:
    """Seconds one pass of the reference kernel takes now."""
    t0 = time.perf_counter()
    b, s = _SMALL, 0.0
    for i in range(2000):
        b = b * 0.5 + _SMALL
        s += float(b[0, 0]) + len({"i": i, "s": s})
    for _ in range(4):
        h = _X @ _W
        _X.T @ h
    return time.perf_counter() - t0


def at_nominal(seconds: float, reference: float) -> float:
    """`seconds` measured while the kernel took `reference`, at nominal speed."""
    return seconds * NOMINAL_S / reference
