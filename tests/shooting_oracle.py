"""Two earlier shooting loops, kept as test oracles.

shoot_periodic, the two-unknown loop, shoots (a, b) = (y, x)(-T) across
the whole of [-T, T] with the residual augmented by the periodicity b - a,
which the library's scalar shooting from the reflection's fixed point no
longer needs.  Every Newton iteration integrates the base point and each
forward-difference column in separate scalar RK4 runs, and every damping
trial in one more.  It uses its own per-row right-hand side and its own
RK4 loop, so it shares no code with refleq.reduce.

shoot_stepwise is the library's scalar loop before it tried several
extrapolated iterations in one integration: each iteration integrates the
full Newton step and one step of OVER_RELAXATION times it.  It shares the
library's system, integrator and record, so a difference against it shows
the Newton loop alone.
"""

from __future__ import annotations

import math

import numpy as np

from refleq.errors import NoConvergence, NonFinite, SingularJacobian
from refleq.reduce import (
    OVER_RELAXATION,
    NewtonRecord,
    NonlinearProblem,
    SystemSolution,
    integrate_mirrored,
)


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


def shoot_stepwise(
    problem: NonlinearProblem,
    guess=(0.0, 0.0),
    n_steps: int = 2000,
    newton_tol: float = 1e-10,
    max_newton: int = 50,
) -> SystemSolution:
    """refleq.reduce.shoot_periodic as it was before the extrapolation ladder:
    one extrapolated Newton step per integration.

    Damped Newton shooting from the reflection's fixed point t = 0.

    A genuine periodic solution has (y, x)(T) = (x(-T), x(T)) = (p, p), so
    the one unknown is p, starting from (a + b)/2 for guess = (a, b).  The
    system runs from (p, p) at T back to 0 and is mirrored onto [-T, 0)
    (integrate_mirrored); the result solves the reflection problem iff
    g(p) = x(0) - y(0) vanishes, so no spurious family can arise.  Newton
    drives |g| to <= newton_tol on the grid -T + h*arange, h = 2T/n_steps
    (n_steps even); filter_reflection_solution sees |g| at t = 0.

    Every point Newton evaluates is integrated together with its forward
    difference column p + s, s = 1e-7 (1 + |p|), and the points of one
    trial share one (2, 2k) RK4 state, so an accepted trial already carries
    its slope g'(p).  Each iteration's first trial is the full step
    p + delta together with the extrapolated step p + OVER_RELAXATION *
    delta, which speeds up convergence at a singular root such as the
    double root p = 0 of f = x*y, where plain Newton only halves the error,
    to a tenfold contraction per iteration; at a regular root it
    overshoots.  The one with the smaller |g| (the full step on a tie) is
    accepted if that is below the current |g|; otherwise the damping factor
    halves to 1/2, 1/4, ... with one point per trial.  A trial whose
    integration turns non-finite in any column counts as too large, so a
    blow-up in the extrapolated step rejects the full step with it.  After
    30 halvings NoConvergence reports the Newton iteration it failed in.
    NonFinite at the guess itself propagates, and a zero or non-finite
    slope raises SingularJacobian.  The returned solution's `newton` field
    (and a NoConvergence's) records what Newton did.
    """
    T = problem.T
    record = NewtonRecord()

    def evaluate(*points):
        """(g, forward-difference slope, (y, x) trajectory) at each point."""
        record.integrations += 1
        base = np.array(points)
        steps = 1e-7 * (1.0 + np.abs(base))
        # columns 2j, 2j+1: point j and its difference column
        columns = np.column_stack([base, base + steps]).ravel()
        _, states = integrate_mirrored(problem, [columns, columns], n_steps, from_end=True)
        y0, x0 = states[n_steps // 2]
        g = x0 - y0
        slopes = (g[1::2] - g[::2]) / steps
        return [(float(g[2 * j]), float(slopes[j]), states[:, :, 2 * j]) for j in range(len(points))]

    a, b = guess
    p = (float(a) + float(b)) / 2.0
    ((g, slope, path),) = evaluate(p)
    record.defect_norms.append(abs(g))
    while (norm := record.defect_norms[-1]) > newton_tol:
        if record.iterations == max_newton:
            record.stop = "max_newton"
            raise NoConvergence(
                f"no convergence after {max_newton} Newton iterations (defect {norm:.3e})",
                last_defect=g,
                iterations=max_newton,
                newton=record,
            )
        record.iterations += 1
        record.slopes.append(slope)
        if slope == 0.0 or not math.isfinite(slope):
            raise SingularJacobian(f"slope g'(p) = {slope} is unusable")
        delta = -g / slope
        if not math.isfinite(delta):
            raise SingularJacobian("Newton step is non-finite")
        lams = (1.0, OVER_RELAXATION)
        for _ in range(30):
            try:
                trials = evaluate(*(p + lam * delta for lam in lams))
            except NonFinite:
                trials = []
            norms = [abs(trial[0]) for trial in trials]
            if norms and min(norms) < norm:
                break
            lams = (lams[0] / 2.0,)
            record.halvings += 1
        else:
            record.steps.append(0.0)
            record.stop = "damping failed"
            raise NoConvergence(
                "damping failed to reduce the defect", last_defect=g, iterations=record.iterations, newton=record
            )
        # argmin keeps the first of equal defects, so the full step wins a tie
        k = int(np.argmin(norms))
        lam, (g, slope, path) = lams[k], trials[k]
        p = p + lam * delta
        record.steps.append(lam)
        record.defect_norms.append(abs(g))
    record.stop = "converged"
    times = -T + 2 * T / n_steps * np.arange(n_steps + 1)
    return SystemSolution(times=times, y_values=path[:, 0], x_values=path[:, 1], newton=record)

