"""The CubicSpline form of monotone.reflected_forcing, kept as a test oracle.

This was the library's forcing before monotone.SplineAt: it builds scipy's
not-a-knot CubicSpline through the grid values on every call and returns
h as a callable on arbitrary points.  `at_points` adapts it to the
library's signature (grid, points, m, rhs) -> (values -> h(points)), so a
test can swap it in for the library's forcing and compare results bit for
bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from refleq.linsolve import vectorized


def reflected_forcing(grid, values, m: float, rhs: Callable) -> Callable:
    """h(s) = rhs(s, x(-s)) + m*x(-s), with x the cubic spline through (grid, values).

    This is the forcing of one fixed-point step for x'(t) = f(...).
    """
    x = CubicSpline(grid, values)

    def h(s):
        s = np.asarray(s, float)
        y = x(-s)
        return rhs(s, y) + m * y

    return h


def at_points(grid, points, m: float, rhs: Callable) -> Callable:
    """values -> h(points) through the oracle, as the solver used to evaluate it."""
    return lambda values: vectorized(reflected_forcing(grid, values, m, rhs))(points)
