"""Closed-form parameter bounds of the catalog's problems, read only by tests."""

import math


def lipschitz_bound_hyperbolic(T: float) -> float:
    """Largest lam for which the hyperbolic_lag problem meets the one-sided
    Lipschitz condition with m = pi/(4T): pi / (4 T cosh(2T))."""
    return math.pi / (4.0 * T * math.cosh(2.0 * T))
