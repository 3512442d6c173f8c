"""Two-unknown damped Newton shooting, kept as a test oracle.

This loop shoots (a, b) = (y, x)(-T) across the whole of [-T, T] with the
residual augmented by the periodicity b - a, which the library's scalar
shooting from the reflection's fixed point no longer needs.  Every Newton
iteration integrates the base point and each forward-difference column in
separate scalar RK4 runs, and every damping trial in one more.  It uses its
own per-row right-hand side and its own RK4 loop, so it shares no code
with refleq.reduce.
"""

from __future__ import annotations

import numpy as np

from refleq.errors import NoConvergence, NonFinite, SingularJacobian


def integrate(f, T: float, init, n_steps: int):
    """Scalar RK4 of the (y, x) system from -T to T; returns (times, states)."""

    def rhs(t, state):
        y, x = state
        return np.array([-f(-t, x, y), f(t, y, x)], dtype=float)

    y = np.asarray(init, dtype=float)
    h = 2 * T / n_steps
    times = -T + h * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, 2))
    states[0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            t = times[i]
            k1 = rhs(t, y)
            k2 = rhs(t + h / 2, y + h / 2 * k1)
            k3 = rhs(t + h / 2, y + h / 2 * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.all(np.isfinite(y)):
                raise NonFinite(f"state became non-finite at t={times[i + 1]}")
            states[i + 1] = y
    return times, states


def shoot_periodic(
    f, T: float, guess=(0.0, 0.0), n_steps: int = 2000, newton_tol: float = 1e-10, max_newton: int = 50, accepted=None
):
    """Returns (times, y, x) of the converged trajectory.

    accepted, if a list, receives every point (a, b) Newton accepts.
    """

    def defect(ab):
        times, states = integrate(f, T, ab, n_steps)
        F = np.array([states[-1, 1] - ab[0], states[-1, 0] - ab[1], ab[1] - ab[0]])
        return F, (times, states[:, 0], states[:, 1])

    ab = np.asarray(guess, dtype=float)
    F, sol = defect(ab)
    for _ in range(max_newton):
        norm = np.linalg.norm(F)
        if norm <= newton_tol:
            return sol
        jac = np.empty((3, 2))
        for j in range(2):
            step = 1e-7 * (1.0 + abs(ab[j]))
            pert = ab.copy()
            pert[j] += step
            Fp, _ = defect(pert)
            jac[:, j] = (Fp - F) / step
        if not np.all(np.isfinite(jac)):
            raise SingularJacobian("Jacobian has non-finite entries")
        delta = np.linalg.lstsq(jac, -F, rcond=None)[0]
        if not np.all(np.isfinite(delta)):
            raise SingularJacobian("Newton step is non-finite")
        lam = 1.0
        for _ in range(30):
            try:
                F_new, sol_new = defect(ab + lam * delta)
            except NonFinite:
                lam /= 2.0
                continue
            if np.linalg.norm(F_new) < norm:
                break
            lam /= 2.0
        else:
            raise NoConvergence("damping failed to reduce the defect", last_defect=F, iterations=max_newton)
        ab = ab + lam * delta
        F, sol = F_new, sol_new
        if accepted is not None:
            accepted.append(ab)
    if np.linalg.norm(F) <= newton_tol:
        return sol
    raise NoConvergence("no convergence", last_defect=F, iterations=max_newton)
