"""chebyshev.interpolate as it was before it kept its factors, kept as a test oracle.

It builds c = weights/(s - points) and its row sums afresh on every call,
BLOCK points of s at a time, and then copies the values at the points of s
that lie on a point of the level.  The library keeps those factors per
degree and grid; the two must agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from refleq.chebyshev import BLOCK, level


def interpolate(values, s):
    """values (n + 1, k) at level n's points, interpolated to the points s of [0, 1], BLOCK points at a time
    (Berrut & Trefethen, SIAM Review 46, 2004)."""
    grid = level(len(values) - 1)
    points, weights = grid.points, grid.weights
    out = np.empty((len(s), values.shape[1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        for first in range(0, len(s), BLOCK):
            c = weights / (s[first : first + BLOCK, None] - points)
            out[first : first + BLOCK] = (c @ values) / c.sum(axis=1, keepdims=True)
    i = np.minimum(np.searchsorted(points, s), len(points) - 1)
    on_point = points[i] == s  # inf/inf in the formula: take the value there
    out[on_point] = values[i[on_point]]
    return out
