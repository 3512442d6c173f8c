"""A fixed calibration load that tracks the speed of the host from moment to moment.

A shared virtual machine runs the same code at speeds up to about 1.5x
apart, switching between them within seconds and holding a mode for
minutes.  Averaging within one run cannot remove a mode that lasts the
whole run, so the benchmark times `calibrate()` between every two timed
calls and scales each call's wall time by REFERENCE_S over the median of
the calibrations around it (see `scales`).  The scaled time is the call's
time at the speed at which the calibration takes REFERENCE_S seconds.
The median ignores a calibration that a preemption stretched.

The load touches no refleq code, so a change to the library cannot move
it.  It mixes what the library's hot paths do: a scalar Python loop, numpy
expressions over 50k-point arrays, a 2-vector stepped in Python, and dense
200 x 200 matrix-vector products.  The parts respond to the host's speed
modes by different amounts (the matrix-vector products least); in this mix
the load's time moves with the mode as the workloads' ops do (measured log
slopes 0.9 to 1.0 for a linear solve, a shooting solve, a short monotone
iteration and a cli command, over four minutes of switching modes).  It allocates no large array: the
allocator serves those from fresh pages or from its heap depending on what
the process did before, which would tie the calibration to the library.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

#: wall time of one calibrate() call at the reference speed (about the median
#: on a 2-vCPU Xeon VM, Python 3.11, numpy 2.4, one BLAS thread)
REFERENCE_S = 0.026
#: calibrations on each side of a call that its scale is taken from
WINDOW = 3

_GRID = np.linspace(0.0, 1.0, 50_000)
_MATRIX = np.random.default_rng(0).random((200, 200))
#: preallocated scratch arrays; _load overwrites them and carries nothing between calls
_A, _B = np.empty_like(_GRID), np.empty_like(_GRID)
_U, _V = np.empty(200), np.empty(200)


def _load() -> float:
    s = 0.0
    for i in range(30_000):
        s += math.sin(i * 1e-3)
    for _ in range(12):
        np.negative(_GRID, out=_A)
        np.exp(_A, out=_A)
        np.multiply(_GRID, 3.0, out=_B)
        np.cos(_B, out=_B)
        np.multiply(_A, _B, out=_A)
        s += float(_A[-1])
    y = np.zeros(2)
    for _ in range(2_000):
        y = y + 1e-3 * np.array([y[1], 1.0 - y[0]])
    # power iteration; _MATRIX's largest eigenvalue is about 100, so _U stays
    # of order one and never reaches subnormal numbers, which are far slower
    _U.fill(1.0)
    for _ in range(900):
        np.dot(_MATRIX, _U, out=_V)
        np.divide(_V, 100.0, out=_U)
    return s + float(y[0]) + float(_U[0])


def calibrate() -> float:
    """Wall time of one pass of the calibration load, in seconds."""
    t0 = perf_counter()
    _load()
    return perf_counter() - t0


def scales(cals: list[float]) -> list[float]:
    """Scale of each of the len(cals) - 1 calls timed between consecutive calibrations.

    Call i ran between cals[i] and cals[i + 1]; its scale is REFERENCE_S over
    the median of the WINDOW calibrations on each side of it.
    """
    return [REFERENCE_S / statistics.median(cals[max(0, i + 1 - WINDOW): i + 1 + WINDOW]) for i in range(len(cals) - 1)]
