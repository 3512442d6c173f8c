"""Built-in forcings and nonlinearities addressable by id from the CLI.

Custom functions enter through the library API; the CLI deliberately has no
expression parser.
"""

from __future__ import annotations

import numpy as np


def forcing(ident: str):
    """Resolve a forcing id: const:<v>, zero, cos, sin, cos_minus_sin."""
    if ident.startswith("const:"):
        value = float(ident.split(":", 1)[1])
        return lambda t: value
    table = {
        "zero": lambda t: 0.0,
        "cos": np.cos,
        "sin": np.sin,
        "cos_minus_sin": lambda t: np.cos(t) - np.sin(t),
    }
    if ident not in table:
        raise KeyError(f"unknown forcing id {ident!r}")
    return table[ident]


def product_nonlinearity(t, y, x):
    """f(t, y, x) = x*y; its periodic system has a spurious solution family."""
    return x * y


def hyperbolic_lag(lam: float):
    """f(t, y) = lam*sinh(t - y), the lower/upper-solution showcase problem."""

    def f(t, y):
        return lam * np.sinh(t - y)

    return f


def squared_cosine_growth(t, x, y):
    """f(t, x, y) = t^2 x^2 (cos^2(y^2) + 1): superlinear, nonnegative."""
    return t**2 * x**2 * (np.cos(y**2) ** 2 + 1.0)


NONLINEARITIES = {
    "e-ex": product_nonlinearity,
    "exa2": squared_cosine_growth,
}
