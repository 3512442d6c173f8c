"""The RK4 loop from before the row signs moved into its step coefficients, kept as a test oracle.

integrate_rk4 here gets the (y, x) system's signed right-hand side,
reduce_system(problem).rhs, and applies no signs of its own, so every stage
multiplies the time and f's value by the row signs.  The library's loop
gets the unsigned derivative and folds the signs into h/2, h and h/6; the
two must agree bit for bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from refleq.errors import NonFinite


def integrate_rk4(rhs: Callable, start: float, end: float, init, n_steps: int):
    """Classical fixed-step RK4; returns (times, states) with the full trajectory."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    y = np.atleast_1d(np.asarray(init, dtype=float))
    h = (end - start) / n_steps
    times = start + h * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1,) + y.shape)
    states[0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for i in range(n_steps):
                t = times[i]
                k1 = np.asarray(rhs(t, y), float)
                k2 = np.asarray(rhs(t + h / 2, y + h / 2 * k1), float)
                k3 = np.asarray(rhs(t + h / 2, y + h / 2 * k2), float)
                k4 = np.asarray(rhs(t + h, y + h * k3), float)
                y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                if not np.isfinite(y).all():
                    raise NonFinite(f"state became non-finite at t={times[i + 1]}")
                states[i + 1] = y
        except OverflowError as exc:
            raise NonFinite(f"rhs overflowed in the step from t={times[i]}") from exc
    return times, states
