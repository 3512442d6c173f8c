"""Nonlinear periodic problems with a known non-constant solution.

x*(t) = 0.2 + 0.3*exp(cos(pi*t)) on T = 1 is even, periodic and not
band-limited; the kinked variant adds 0.1*|t|^3, whose third derivative
jumps at t = 0.  With

    f(t, y, x) = x*'(t) + sin(y) - sin(x*(-t)) + psi(x - x*(t)),
    psi(e) = 0.5*e + e^2,

x* solves x'(t) = f(t, x(-t), x(t)) exactly: at x = x*, y = x*(-t) the
middle terms cancel and psi(0) = 0.

The monotone layer's problem x'(t) = f(t, x(-t)) gets

    f(t, y) = x*'(t) - k*(y - x*(-t)),  k = m/2,

which x* solves exactly, and f(t, x) - f(t, y) = -k(x - y) >= -m(x - y)
for y <= x: the one-sided Lipschitz condition of the window m > 0.
"""

import numpy as np

T = 1.0


def _solution(kinked: bool):
    """(x*, x*') of the smooth or the |t|^3-kinked solution."""
    kink = 0.1 if kinked else 0.0

    def x_star(t):
        return 0.2 + 0.3 * np.exp(np.cos(np.pi * t)) + kink * np.abs(t) ** 3

    def dx_star(t):
        return -0.3 * np.pi * np.sin(np.pi * t) * np.exp(np.cos(np.pi * t)) + 3 * kink * t * np.abs(t)

    return x_star, dx_star


def periodic_solution(kinked: bool = False):
    """(x*, f) of the smooth or the |t|^3-kinked problem; both take numpy arrays."""
    x_star, dx_star = _solution(kinked)

    def f(t, y, x):
        e = x - x_star(t)
        return dx_star(t) + np.sin(y) - np.sin(x_star(-t)) + 0.5 * e + e**2

    return x_star, f


def reflected_solution(m: float, kinked: bool = False):
    """(x*, f) of x'(t) = f(t, x(-t)) with f(t, y) = x*'(t) - (m/2)(y - x*(-t))."""
    x_star, dx_star = _solution(kinked)

    def f(t, y):
        return dx_star(t) - m / 2 * (y - x_star(-t))

    return x_star, f
