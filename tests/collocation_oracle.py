"""collocate_periodic as it was on a fixed degree, kept as a test oracle.

collocate_fixed solves the periodic problem on the 33 Chebyshev points of
[0, T] whatever the solution needs, with no check of the coefficient tail:
the library's collocation before it chose its degree.  It shares the
library's Newton loop, record and vectorized f, and builds its own points,
weights and Newton matrix, so a difference against it shows the degree
choice and the warm starts alone.
"""

from __future__ import annotations

import math

import numpy as np

from refleq.errors import NonFinite, SingularJacobian
from refleq.linsolve import vectorized
from refleq.reduce import NewtonRecord, SystemReduction, SystemSolution, _damped_newton, _mirror, _newton_start

DEGREE = 32


def _chebyshev(n: int):
    """The n + 1 Chebyshev points z_j = (1 - cos(pi j/n))/2 of [0, 1], their barycentric weights, and collocation's Newton matrix
    without f: D in z (Trefethen, Spectral Methods in MATLAB, 2000, ch. 6) in both rows of (v, u), the rows at z = 1 fixing the state."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** np.arange(n + 1)
    d = np.outer(c, 1.0 / c) / (x[:, None] - x + np.eye(n + 1))
    ivp = np.kron(np.eye(2), 2.0 * (np.diag(d.sum(axis=1)) - d))  # dz/dx = -1/2
    ivp[[n, 2 * n + 1]] = np.eye(2 * n + 2)[[n, 2 * n + 1]]
    return (1.0 - x) / 2.0, 1.0 / c, ivp


_Z, _WEIGHTS, _IVP = _chebyshev(DEGREE)


def collocate_fixed(problem, guess=(0.0, 0.0), newton_tol: float = 1e-10, max_newton: int = 50) -> SystemSolution:
    """The 65 mirrored Chebyshev points of [-T, T] of the fixed-degree collocation, with its Newton record."""
    p = _newton_start(guess, newton_tol, max_newton)
    record = NewtonRecord()
    y, x = _mirror(_collocate(problem, p, newton_tol, max_newton, record)[0]).T
    t = problem.T * _Z
    return SystemSolution(times=np.concatenate([-t[:0:-1], t]), y_values=y, x_values=x, newton=record)


def _collocate(problem, p, newton_tol, max_newton, record: NewtonRecord):
    """Newton from the constant p, filling record: (y, x) = (v, u) and w as columns, g', secant slope."""
    f, T, m = vectorized(problem.f), problem.T, len(_Z)
    sign = np.reshape(SystemReduction.sign, (2, 1))  # row 0, v' = -f(-t, u, v), at -t; row 1, u' = f(t, v, u), at t
    times, scale = sign * (T * _Z), sign * np.where(_Z < 1.0, T, 0.0)  # f's factor in each row is 0 at t = T
    diagonal = np.arange(2 * m)

    def evaluate(states):
        """(g, g', (state, w)) for each (2, m) state of the stack, once Newton at fixed p has put it on p's trajectory."""
        k, last = len(states), math.inf
        for inner in range(30):
            y = states[:, ::-1]
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                values = f(times, y, states)
                y_step, x_step = y + 1e-7 * (1.0 + np.abs(y)), states + 1e-7 * (1.0 + np.abs(states))
                a = scale * (f(times, y, x_step) - values) / (x_step - states)  # T sign f_x
                b = scale * (f(times, y_step, states) - values) / (y_step - y)  # T sign f_y
                # D maps a constant to 0: relative to the value at T, exactly so; w - 1 solves jac (w - 1) = a + b,
                # so w is 1 exactly where f ignores the state
                r = ((states - states[..., -1:]).reshape(k, 2 * m) @ _IVP.T).reshape(k, 2, m) - scale * values
                rhs = np.stack([-r, a + b], axis=-1).reshape(k, 2 * m, 2)
            if not np.isfinite(rhs).all():  # a + b holds all f terms of jac
                raise NonFinite("the collocation residual or Jacobian became non-finite")
            jac = np.repeat(_IVP[None], k, axis=0)
            jac[:, diagonal, diagonal] -= a.reshape(k, 2 * m)
            jac[:, diagonal, (diagonal + m) % (2 * m)] -= b.reshape(k, 2 * m)  # f_y: the other row's value
            try:
                z, w = np.moveaxis(np.linalg.solve(jac, rhs).reshape(k, 2, m, 2), -1, 0)
            except np.linalg.LinAlgError:
                raise SingularJacobian("the collocation Jacobian is singular") from None
            states, size = states + z, np.max(np.abs(z))
            if not (np.isfinite(size) and np.isfinite(w).all()):
                raise NonFinite("the collocation Newton step became non-finite")
            if size <= newton_tol * (1.0 + np.max(np.abs(states))):
                break
            if size >= last or inner == 29:  # off its trajectory a state's g means nothing: a trial counts as too large
                raise SingularJacobian("the collocation's Newton at fixed p does not converge")
            last = size
        g, slopes = states[:, 1, 0] - states[:, 0, 0], w[:, 1, 0] - w[:, 0, 0]
        return [(float(g[j]), float(slopes[j]), (states[j], 1.0 + w[j])) for j in range(k)]

    def step(state, delta, lams):
        states, w = state
        return evaluate(np.stack([states + lam * delta * w for lam in lams]))

    (g, slope, (states, w)), before = _damped_newton(step, evaluate(np.full((1, 2, m), p))[0], newton_tol, max_newton, record)
    # at a double root the tangent's step would halve the distance Newton stopped at, which one
    # more iteration would not; the secant's moves it by about a tenth, at a simple root as the tangent's
    secant = slope
    if before is not None:
        g_before, _, (states_before, _) = before
        secant = (g - g_before) / (states[1, -1] - states_before[1, -1])
    return (states + (-g / secant if secant else 0.0) * w).T, w.T, slope, secant
