"""Reductions between reflection equations and ordinary differential systems.

A first-order equation x'(t) = f(x(phi(t))) with an involution phi can be
rewritten as a second-order ODE; the reflection case x'(t) = f(t, x(-t), x(t))
reduces to a coupled 2-D system in (y, x) with y(t) = x(-t).  Both reductions
can manufacture spurious solutions: solving the system is necessary but not
sufficient, so solutions are filtered against the original problem afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from . import chebyshev
from .errors import NoConvergence, NonFinite, SingularJacobian
from .kernel import check_lattice_size, check_real_scalar, real_array
from .linsolve import _float_result, _raise_user_failure, vectorized, write_csv


@dataclass
class NonlinearProblem:
    """x'(t) = f(t, x(-t), x(t)) on [-T, T].

    f takes (t, y, x) where y stands for x(-t).  Caratheodory regularity in
    t is the caller's responsibility; only pointwise evaluations are used.
    """

    f: Callable
    T: float

    def __post_init__(self):
        if not (check_real_scalar("T", self.T) and self.T > 0):
            raise ValueError("T must be finite and strictly positive")
        if not check_real_scalar("2T", 2.0 * float(self.T)):
            raise ValueError("2T, the length of [-T, T], must be finite")
        # a subnormal T has fewer than 53 significant bits: shooting's grid on it is not symmetric about 0
        if self.T < np.finfo(float).tiny:
            raise ValueError(f"T must be a normal double, at least {float(np.finfo(float).tiny)!r}, got {float(self.T)!r}")


def xi_inverse(t, y, x):
    """(t, y, x) -> (t, z, w) = (t, (x+y)/2, (x-y)/2)."""
    return t, (x + y) / 2.0, (x - y) / 2.0


@dataclass
class SecondOrderReduction:
    """Second-order form of x'(t) = f_scalar(x(phi(t))): RHS and initial data."""

    rhs: Callable  # (t, x, xp) -> x''
    initial_state: Callable  # x_c -> (x(c), x'(c))


def reduce_second_order(f_scalar: Callable, finv: Callable, fprime: Callable, dphi: Callable) -> SecondOrderReduction:
    """Turn x' = f(x(phi(t))) into x'' = f'(f^{-1}(x')) * f(x) * phi'(t).

    dphi is the derivative phi' of the involution.  The induced data at the
    fixed point c of phi are x(c) = x_c and x'(c) = f(x_c).  finv must
    invert f_scalar on the range visited during integration; whatever finv
    raises outside it propagates to the caller.
    """

    def rhs(t, x, xp):
        return fprime(finv(xp)) * f_scalar(x) * dphi(t)

    def initial_state(x_c):
        return float(x_c), float(f_scalar(x_c))

    return SecondOrderReduction(rhs=rhs, initial_state=initial_state)


@dataclass(frozen=True)
class SystemReduction:
    """Coupled 2-D system for the reflection problem, state (y, x).

    x' = f(t, y, x),  y' = -f(-t, x, y); shoot_periodic imposes
    (y, x)(-T) = (x, y)(T), integrate_ivp (y, x)(0) = (x0, x0).  With the
    row signs `sign` the system is state' = sign * derivative(sign * t,
    state), derivative(s, state) = f(s, state[::-1], state); rhs(t, state)
    is that signed right-hand side, with `sign` broadcast to the state's shape.
    """

    rhs: Callable
    derivative: Callable
    sign: ClassVar[tuple] = (-1.0, 1.0)


def reduce_system(problem: NonlinearProblem) -> SystemReduction:
    f = vectorized(problem.f)

    def derivative(signed_t, state):
        # one f call serves row 0 at (-t, x, y) and row 1 at (t, y, x)
        return f(signed_t, state[::-1], state)

    derivative._elementwise = True  # f acts elementwise, so integrate_rk4 may stack many steps' states

    def rhs(t, state):
        # SystemReduction.sign at the shape of state, (2,) or (2, k): f sees signed times there
        state = real_array("state", state)
        sign = np.broadcast_to(np.reshape(SystemReduction.sign, (2,) + (1,) * (state.ndim - 1)), state.shape)
        return derivative(sign * t, state) * sign

    return SystemReduction(rhs, derivative)


#: length of the extrapolated step that shoot_periodic tries next to each
#: full Newton step.  Near a singular root with a one-dimensional null
#: space, such as the genuine root of f = x*y, the Newton step delta covers
#: half the error (Decker & Kelley, SIAM J. Numer. Anal. 17, 1980), so the
#: step lam * delta contracts it by 1 - lam/2 per iteration: 1.8 divides it
#: by ten.  lam = 2 (Kelley & Suresh, SIAM J. Numer. Anal. 20, 1983) cancels
#: the leading term, so where the iterate lands is left to the higher-order
#: terms and to rounding, anywhere from the tolerance down to ~1e-14, and
#: the accuracy of a converged solution would depend on its guess by six
#: orders of magnitude.  With a fixed contraction the stop lies within about
#: a decade of where |F| crosses newton_tol.  collocate_periodic tries lam = 2
#: only where the slopes show a double root, and then ends on Schroeder's step
#: -2g/g', which takes every guess to the root up to rounding.
OVER_RELAXATION = 1.8

#: shoot_periodic runs collocate_periodic first from this many steps on
COLLOCATION_MIN_STEPS = 800


#: collocate_periodic's degrees N, lowest first: N = 16 gives 17 points, the fewest whose tail
#: chebyshev.standard_chop judges, and N doubles while the tail of u or v does not chop at rounding level
COLLOCATION_DEGREES = (16, 32, 64, 128, 256)

#: collocate_periodic returns the mirrored points of this degree, whatever degree it solved at
OUTPUT_DEGREE = 32


@dataclass
class NewtonRecord:
    """What shoot_periodic or collocate_periodic did, for diagnostics.

    defect_norms holds |g(p)| at the guess and at every accepted point (in collocation on p's trajectory);
    integrations counts batched half-interval RK4 runs, rejected damping trials included.  steps holds each
    iteration's accepted damping factor (OVER_RELAXATION marks an extrapolated step, 2.0 Schroeder's step at a
    double root, 0.0 an iteration whose damping failed) and slopes the g'(p) its Newton step divided by; it falls
    towards 0 at a singular root.  multiplicity is 2 where a collocation's Newton stopped on Schroeder's step, so
    that its last step was -2g/g', and 1 otherwise; shoot_periodic's own record keeps 1.
    stop is "converged", "damping failed" or "max_newton".  coarse is shoot_periodic's collocation record from
    COLLOCATION_MIN_STEPS on; its stop reads "<exception name>: <why>" where it fell back to the guess.
    error_estimate, also from there on but None after a fall-back, estimates the max error of both rows:
    max|collocation - returned| on the fine grid, where RK4's error and its shift of the root show, plus the
    collocation's own estimate of how far its p lies from a simple or a double root.

    A collocation record also holds the last degree N it solved at and that solution's tail: the larger of
    u's and v's chebyshev.tail.  Its Newton runs on across the degrees, so defect_norms may jump where N
    doubles, and its stop reads "unresolved" where the tail did not chop at the last of COLLOCATION_DEGREES.
    """

    iterations: int = 0
    integrations: int = 0
    halvings: int = 0
    defect_norms: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    slopes: list = field(default_factory=list)
    stop: str | None = None
    coarse: NewtonRecord | None = None
    error_estimate: float | None = None
    degree: int | None = None
    tail: float | None = None
    multiplicity: int = 1


@dataclass
class SystemSolution:
    """Trajectory of the (y, x) system on a uniform grid over [-T, T], as three float arrays of one shape (n,).

    newton is set by shoot_periodic and is not part of any output file.
    """

    times: np.ndarray
    y_values: np.ndarray
    x_values: np.ndarray
    newton: NewtonRecord | None = None

    def __post_init__(self):
        for name in ("times", "y_values", "x_values"):
            setattr(self, name, real_array(name, getattr(self, name)))
        if self.times.ndim != 1:
            raise ValueError(f"times must be one-dimensional, got shape {self.times.shape}")
        for name in ("y_values", "x_values"):
            if (shape := getattr(self, name).shape) != self.times.shape:
                raise ValueError(f"{name} must have the shape {self.times.shape} of times, got {shape}")

    def to_csv(self, fh) -> None:
        """Write t, y, x and z, w = (x + y)/2, (x - y)/2 as CSV to the open text file fh."""
        _, z, w = xi_inverse(self.times, self.y_values, self.x_values)
        write_csv(fh, ["t", "y", "x", "z", "w"], self.times, self.y_values, self.x_values, z, w)


#: most values per stage in one segment of integrate_rk4: a run goes in segments of RK4_WINDOW steps, fewer where
#: the state holds more than RK4_BLOCK // RK4_WINDOW values; a segment's stage times are signed at once and its
#: new states checked for non-finite entries once, at its end
RK4_BLOCK = 4096

#: steps of each window that integrate_rk4 fills by Jacobi sweeps after its first step, and the sweeps
#: one window may take before the rest of the run goes step by step.  A sweep costs a numpy f about as
#: much as one or two steps, and an f of math functions, which vectorized calls per element, about a
#: tenth of the window in steps.  Smooth trajectories need 10 to 26 sweeps per window, constant ones 1
RK4_WINDOW = 256
RK4_SWEEPS = 32


def _increment(rhs, y, t1, t2, t4, half, full, sixth):
    """RK4's increment sixth * (((k1 + 2 k2) + 2 k3) + k4) at the states y, with 2 k as k + k, which is the same double."""
    k1 = _float_result(rhs(t1, y), y.shape)
    k2 = _float_result(rhs(t2, y + half * k1), y.shape)
    k3 = _float_result(rhs(t2, y + half * k2), y.shape)
    k4 = _float_result(rhs(t4, y + full * k3), y.shape)
    return sixth * (((k1 + (k2 + k2)) + (k3 + k3)) + k4)


def _sweep_window(rhs, y, stage_times, coefficients) -> int:
    """Fill the window y = states[i : i + w + 1] of integrate_rk4, steps along its last axis, by Jacobi sweeps.

    y[..., 0] is exact.  Each sweep takes the _increment of every step from the last exact state on at the
    previous sweep's states, one rhs call per stage on the states stacked along that axis, and sums the
    increments from that exact state with np.cumsum, as the step-by-step loop adds them.  So a sweep that reproduces
    its states bit for bit has reached the step-by-step trajectory, and after any sweep so have the states up to
    the first one that moved, that one too, finite or not.  Returns how many states after y[..., 0] are exact: w
    where the window converged, fewer where a sweep raised or divided by zero, made a non-finite value, or the
    sweeps ran out.
    """
    w = y.shape[-1] - 1
    y[..., 1:] = y[..., :1]
    exact = 0
    for _ in range(RK4_SWEEPS):
        try:
            with np.errstate(divide="raise"):
                increments = _increment(rhs, y[..., exact:-1], *(s[..., exact:] for s in stage_times), *coefficients)
        except Exception:  # noqa: BLE001 - the step-by-step loop meets it again where it is real
            return exact
        new = np.cumsum(np.concatenate([y[..., exact : exact + 1], increments], axis=-1), axis=-1)
        moved = (new.view(np.int64) != y[..., exact:].view(np.int64)).reshape(-1, w + 1 - exact).any(axis=0)
        if not moved.any():
            return w
        y[..., exact:] = new
        exact += int(np.argmax(moved))
        if not np.isfinite(new).all():  # the next sweep would hand f non-finite states
            return exact
    return exact


def _check_finite(times, states, first: int, stop: int) -> None:
    """Raise NonFinite at the first of states[first+1 : stop+1] with a non-finite entry."""
    rows = states[first + 1 : stop + 1]
    if not np.isfinite(rows).all():
        bad = int(np.argmin(np.isfinite(rows).reshape(len(rows), -1).all(axis=1)))
        raise NonFinite(f"state became non-finite at t={times[first + 1 + bad]}")


def integrate_rk4(rhs: Callable, start: float, end: float, init, n_steps: int, sign=1.0):
    """Classical fixed-step RK4 in 1..MAX_LATTICE_POINTS steps; returns (times, states) with the full trajectory.

    start, end and end - start must be finite (ValueError before rhs is called), and
    init has shape (dim,) or (dim, k); the k columns are independent states
    advanced together, so rhs must map arrays of init's shape columnwise to
    that shape or a constant (0-d); any other shape counts as rhs failing.
    states has shape (n_steps+1,) + init.shape.  Each step adds its
    _increment to the state.  After step 0 the run goes in segments of
    RK4_WINDOW steps, or of RK4_BLOCK // init.size steps where that is
    fewer; the first segment holds step 0 too.  Raises NonFinite at the
    first step whose state has a non-finite entry; as one stays non-finite,
    states are checked once per segment, at its end, so rhs may see a
    non-finite state until that segment ends, and if rhs fails, an earlier
    non-finite row still raises NonFinite.  Otherwise rhs follows the
    result and failure rule of every user function (vectorized's).

    sign is 1.0 or one sign (+-1) per row of the state; the system is then
    y' = sign * rhs(sign * t, y).  rhs gets the signed time, at the state's
    shape for row signs, and returns the unsigned derivative; the signs ride
    in the step coefficients h/2, h and h/6.  Multiplying by +-1 is exact and
    rounding is symmetric, so the trajectory is bit for bit that of the
    signed rhs with sign 1.0.

    An rhs marked _elementwise, as reduce_system's derivative is, also gets
    stacks: where segments are RK4_WINDOW steps long, each is a window that
    Jacobi sweeps fill (_sweep_window), so windows start at steps 1 + k
    RK4_WINDOW.  A sweep calls rhs on a window's states stacked along a
    trailing axis, init.shape + (w,), with the stage times at that shape
    (at (w,) for sign 1.0).  The result is the step-by-step loop's bit for
    bit wherever rhs rounds a stack as it rounds one state; numpy's
    AVX-512 exp, sinh and ** do not, so an f of them may differ in the
    last bits, as shoot_periodic's batched columns already may.  A window
    that raises, turns non-finite or runs out of sweeps (RK4_SWEEPS) hands
    its last exact state to the step-by-step loop for the rest of the run,
    so failures, their messages and the segment checks are that loop's.
    """
    if not (check_real_scalar("start", start) & check_real_scalar("end", end)):
        raise ValueError("start and end must be finite")
    if not check_real_scalar("end - start", float(end) - float(start)):
        raise ValueError("end - start, the length of the run, must be finite")
    check_lattice_size("n_steps", n_steps, 1)
    y = np.atleast_1d(real_array("init", init))
    h = (end - start) / n_steps
    times = start + h * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1,) + y.shape)
    states[0] = y
    sign = real_array("sign", sign)
    if sign.ndim:
        sign = np.broadcast_to(sign.reshape(sign.shape + (1,) * (y.ndim - 1)), y.shape)
    half, full, sixth = h / 2 * sign, h * sign, h / 6 * sign
    coefficients = half[..., None], full[..., None], sixth[..., None]
    segment = max(1, min(RK4_WINDOW, RK4_BLOCK // max(1, y.size)))
    speculate = getattr(rhs, "_elementwise", False) and segment == RK4_WINDOW
    trailing, first = np.moveaxis(states, 0, -1), 0
    # overflow is expected on blow-up and surfaces as NonFinite, not a warning;
    # a scalar rhs such as math.sinh raises OverflowError instead
    with np.errstate(over="ignore", invalid="ignore"):
        while first < n_steps:
            stop = min((first or 1) + segment, n_steps)
            t = times[first:stop].reshape((-1,) + (1,) * sign.ndim)
            stage_times = t * sign, (t + h / 2) * sign, (t + h) * sign
            i = first
            while i < stop:
                if speculate and i:
                    along = [s.transpose(*range(1, s.ndim), 0)[..., i - first :] for s in stage_times]
                    exact = _sweep_window(rhs, trailing[..., i : stop + 1], along, coefficients)
                    speculate, i = exact == stop - i, i + exact
                    continue
                end = stop if i else 1  # step 0 goes step by step, so an f failing there is called as often
                rows = zip(range(i, end), states[i:end], states[i + 1 :], *(s[i - first :] for s in stage_times))
                try:
                    for i, y, new, t1, t2, t4 in rows:
                        np.add(y, _increment(rhs, y, t1, t2, t4, half, full, sixth), out=new)
                except Exception as exc:
                    _check_finite(times, states, first, i)
                    _raise_user_failure(exc)
                i = end
            _check_finite(times, states, first, stop)
            first = stop
    return times, states


def integrate_mirrored(problem: NonlinearProblem, init, n_steps: int, from_end: bool):
    """RK4 of the problem's (y, x) system over [0, T] in n_steps/2 steps,
    from T back to 0 if from_end, then mirrored onto [-T, 0) as
    (y, x)(-t) = (x, y)(t).  init is integrate_rk4's.

    The system is unchanged under (t, y, x) -> (-t, x, y).  Returns (times,
    states) over [-T, T]; the t = 0 row is the integrated one, so a
    trajectory with y(0) != x(0) keeps the mismatch there.
    """
    check_lattice_size("n_steps", n_steps, 1)
    if n_steps % 2:
        raise ValueError("n_steps must be even")
    system = reduce_system(problem)
    start, end = (problem.T, 0.0) if from_end else (0.0, problem.T)
    times, states = integrate_rk4(system.derivative, start, end, init, n_steps // 2, system.sign)
    if from_end:
        times, states = times[::-1], states[::-1]
    return np.concatenate([-times[:0:-1], times]), _mirror(states)


def _mirror(states):
    """(y, x) rows at t = 0, ..., T extended onto [-T, 0) as (y, x)(-t) = (x, y)(t)."""
    return np.concatenate([states[:0:-1, ::-1], states])


def integrate_ivp(problem: NonlinearProblem, x0: float, n_steps: int) -> SystemSolution:
    """Trajectory on [-T, T] with x(0) = x0: RK4 from t = 0 out to T, mirrored onto [-T, 0]."""
    if not check_real_scalar("x0", x0):
        raise ValueError("x0 must be finite")
    times, states = integrate_mirrored(problem, (x0, x0), n_steps, False)
    return SystemSolution(times=times, y_values=states[:, 0], x_values=states[:, 1])


def _newton_start(guess, newton_tol, max_newton) -> float:
    """Check the Newton arguments of shoot_periodic and collocate_periodic; returns p = (a + b)/2 for guess = (a, b)."""
    if not (check_real_scalar("newton_tol", newton_tol) and newton_tol > 0):
        raise ValueError("newton_tol must be finite and strictly positive")
    check_lattice_size("max_newton", max_newton, 1, minimum=0)
    try:
        a, b = guess
    except (TypeError, ValueError):
        raise ValueError("guess must have two entries (a, b)") from None
    if not (check_real_scalar("guess[0]", a) & check_real_scalar("guess[1]", b) and math.isfinite(p := (float(a) + float(b)) / 2.0)):
        raise ValueError("guess must give a finite p = (a + b)/2")
    return p


def shoot_periodic(
    problem: NonlinearProblem,
    guess=(0.0, 0.0),
    n_steps: int = 2000,
    newton_tol: float = 1e-10,
    max_newton: int = 50,
) -> SystemSolution:
    """Damped Newton shooting from the reflection's fixed point t = 0.

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
    blow-up in the extrapolated step rejects the full step with it.
    newton_tol must be finite and positive, max_newton >= 0, p finite.  After
    30 halvings NoConvergence reports the Newton iteration it failed in.
    NonFinite at the guess itself propagates, and a zero or non-finite
    slope raises SingularJacobian.  The returned solution's `newton` field
    (and a NoConvergence's) records what Newton did.

    All arguments are checked first.  From COLLOCATION_MIN_STEPS steps on, collocate_periodic runs first
    (record `coarse`) and the grid integrates its p once, as one (2,) state: where |g| <= newton_tol the
    result is this path plus delta * W, W the collocation's w on the grid (interpolated from the degree it
    solved at) and delta = -g over its secant slope; else Newton runs from p, or from the guess where the
    collocation raises NoConvergence (also where no degree resolves the solution), NonFinite or
    SingularJacobian.  At a double root the collocation's Newton ends on Schroeder's step (coarse.multiplicity
    2), so its p, and with it this path, lies on the root up to rounding and w's forward-difference bias.
    Below COLLOCATION_MIN_STEPS Newton keeps the trial pair (1, OVER_RELAXATION) throughout, as it does where
    the collocation falls back: its forward-difference slope is biased at a double root.
    """
    p = _newton_start(guess, newton_tol, max_newton)
    check_lattice_size("n_steps", n_steps, 1)
    if n_steps % 2:
        raise ValueError("n_steps must be even")
    record = NewtonRecord()
    if n_steps < COLLOCATION_MIN_STEPS:
        _, _, path = _shoot(problem, p, n_steps, newton_tol, max_newton, record)
    else:
        record.coarse = NewtonRecord()
        try:
            states, sensitivity, root_gap, secant = _collocate(problem, p, newton_tol, max_newton, record.coarse)
        except (NoConvergence, NonFinite, SingularJacobian) as exc:
            record.coarse.stop = f"{type(exc).__name__}: {record.coarse.stop or exc}"
            _, _, path = _shoot(problem, p, n_steps, newton_tol, max_newton, record)
        else:
            half = n_steps // 2
            fine = chebyshev.interpolate(np.hstack([states, sensitivity]), np.linspace(0.0, 1.0, half + 1))
            p = float(states[-1, 1])
            record.integrations += 1
            _, path = integrate_mirrored(problem, (p, p), n_steps, True)
            g = float(path[half, 1] - path[half, 0])
            if abs(g) > newton_tol:
                _, _, path = _shoot(problem, p, n_steps, newton_tol, max_newton, record)
            else:
                record.defect_norms.append(abs(g))
                record.stop = "converged"
                path += (-g / secant if secant else 0.0) * _mirror(fine[:, 2:])
            record.error_estimate = float(np.max(np.abs(fine[:, :2] - path[half:]))) + root_gap
    times = -problem.T + 2 * problem.T / n_steps * np.arange(n_steps + 1)
    return SystemSolution(times=times, y_values=path[:, 0], x_values=path[:, 1], newton=record)


def _damped_newton(step, point, newton_tol, max_newton, record: NewtonRecord, double_roots=False):
    """shoot_periodic's and collocate_periodic's damped Newton on a scalar defect g(p), filling record.

    point is (g, g'(p), state) at the start; step(state, delta, lams) returns the point at each
    lam * delta, delta = -g/g', or raises NonFinite or SingularJacobian where a trial is unusable.
    Each iteration's trial pair is (1, OVER_RELAXATION).  With double_roots (collocation only), an
    iteration whose slope is 0.05 to 0.2 times the one before tries (1, 2) instead, Schroeder's step at a
    double root (record.steps then holds 2.0 where it is accepted).  Returns the first point with
    |g| <= newton_tol and the point before it (None at the start).
    """
    g, slope, state = point
    before = None
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
        # after a step of OVER_RELAXATION, the last two slopes' ratio is 1 - OVER_RELAXATION/q at a root of
        # multiplicity q: 0.1 at a double root, about 1 at a simple one.  There Schroeder's step 2 delta is tried
        if double_roots and len(record.slopes) > 1 and 0.05 <= slope / record.slopes[-2] <= 0.2:
            lams = (1.0, 2.0)
        for _ in range(30):
            try:
                trials = step(state, delta, lams)
            except (NonFinite, SingularJacobian):
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
        before, (g, slope, state) = (g, slope, state), trials[k]
        record.steps.append(lams[k])
        record.defect_norms.append(abs(g))
    record.stop = "converged"
    return (g, slope, state), before


def _shoot(problem, p, n_steps, newton_tol, max_newton, record: NewtonRecord):
    """shoot_periodic's damped Newton from p on the grid of n_steps steps, filling record; returns (g, g', path) at its root."""

    def evaluate(*points):
        """(g, forward-difference slope, (point, (y, x) trajectory)) at each point."""
        record.integrations += 1
        base = np.array(points)
        steps = 1e-7 * (1.0 + np.abs(base))
        # columns 2j, 2j+1: point j and its difference column
        columns = np.column_stack([base, base + steps]).ravel()
        _, states = integrate_mirrored(problem, [columns, columns], n_steps, True)
        y0, x0 = states[n_steps // 2]
        g = x0 - y0
        slopes = (g[1::2] - g[::2]) / steps
        return [(float(g[2 * j]), float(slopes[j]), (points[j], states[:, :, 2 * j])) for j in range(len(points))]

    def step(state, delta, lams):
        return evaluate(*(state[0] + lam * delta for lam in lams))

    (g, slope, (_, path)), _ = _damped_newton(step, evaluate(p)[0], newton_tol, max_newton, record)
    return g, slope, path


def collocate_periodic(problem: NonlinearProblem, guess=(0.0, 0.0), newton_tol: float = 1e-10, max_newton: int = 50) -> SystemSolution:
    """Half-interval Chebyshev collocation of the periodic problem, at the lowest degree whose solution chops.

    u(t) = x(t), v(t) = x(-t) solve u' = f(t, v, u), v' = -f(-t, u, v), u(0) = v(0), u(T) = v(T) (shoot_periodic's
    (y, x) system), here in z = t/T with f times T, so no T overflows the differentiation matrix.  Newton runs from
    the constant p = (a + b)/2 for guess = (a, b) on the defect g = u(0) - v(0) of p = u(T) = v(T) as shoot_periodic's
    does (trial pair, damping, errors, `newton` record).  Each trial is first put on its p's trajectory by Newton on
    the collocation equations at t < T with the state at T fixed, one forward-difference f call each for f_y and f_x
    per step, until a step is at most newton_tol (1 + max|state|); where the steps stop shrinking the trial counts as
    too large (SingularJacobian at the guess).  The same solves give w = d(v, u)/dp, g' = w_u(0) - w_v(0), and a
    trial adds lam * delta * w.  Unlike shoot_periodic's Newton below COLLOCATION_MIN_STEPS, it tries Schroeder's
    step 2 delta where a slope is 0.05 to 0.2 times the one before, as after an OVER_RELAXATION step at a double
    root (_damped_newton).

    Newton starts on the N + 1 points of the first of COLLOCATION_DEGREES.  Once it converges there, the Chebyshev
    tails of u and v must chop at rounding level (chebyshev.standard_chop); w's tail is not judged.  Else N
    doubles, the solution is interpolated to the new points and Newton goes on from its p, sharing max_newton with
    the lower degrees.  Past the last degree NoConvergence says "unresolved at N = 256, tail ...".  The record's
    degree and tail say where it stopped.  Returns the last iterate plus delta * w, delta = -g over the secant slope
    of the last two iterates (at the last degree that took a step; g' without a step), or delta = -2g/g' where
    Newton stopped on Schroeder's step (record.multiplicity 2), at the 2 OUTPUT_DEGREE + 1 mirrored Chebyshev
    points of [-T, T], interpolated from the solved degree with no f call.  That step is linear in p: it puts p on
    a double root, but leaves the second-order term of the trajectory's dependence on p, about |g|/2 <= newton_tol.
    """
    p = _newton_start(guess, newton_tol, max_newton)
    record = NewtonRecord()
    z = chebyshev.level(OUTPUT_DEGREE).points
    y, x = _mirror(chebyshev.interpolate(_collocate(problem, p, newton_tol, max_newton, record)[0], z)).T
    t = problem.T * z
    return SystemSolution(times=np.concatenate([-t[:0:-1], t]), y_values=y, x_values=x, newton=record)


def _collocate(problem, p, newton_tol, max_newton, record: NewtonRecord):
    """collocate_periodic's Newton from the constant p, filling record: (y, x) = (v, u) and w as columns at the
    solved degree's points, an estimate of their p's distance to the root, and the secant slope."""
    f, T = vectorized(problem.f), problem.T
    sign = np.reshape(SystemReduction.sign, (2, 1))  # row 0, v' = -f(-t, u, v), at -t; row 1, u' = f(t, v, u), at t
    start, secant, reach = np.full((1, 2, COLLOCATION_DEGREES[0] + 1), p), None, math.inf
    for n in COLLOCATION_DEGREES:
        level, m = chebyshev.level(n), n + 1
        times, scale = sign * (T * level.points), sign * np.where(level.points < 1.0, T, 0.0)  # f's factor in each row is 0 at t = T
        # the Newton matrices and right-hand sides of up to two trials, refilled by every inner step
        jacs, rhss = np.empty((2, 2 * m, 2 * m)), np.empty((2, 2 * m, 2))

        def evaluate(states):
            """(g, g', (state, w)) for each (2, m) state of the stack, once Newton at fixed p has put it on p's trajectory."""
            k, last = len(states), math.inf
            jac, rhs = jacs[:k], rhss[:k]
            flat = jac.reshape(k, -1)
            # jac's diagonal, and the off-diagonals +-m where f_y couples each row to the other row's value
            diagonal, upper, lower = flat[:, :: 2 * m + 1], flat[:, m : 2 * m * m : 2 * m + 1], flat[:, 2 * m * m :: 2 * m + 1]
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                for inner in range(30):
                    y = states[:, ::-1]
                    values = f(times, y, states)
                    x_step = states + 1e-7 * (1.0 + np.abs(states))  # flipped, x_step and run are y's, element for element
                    a = scale * (f(times, y, x_step) - values) / (run := x_step - states)  # T sign f_x
                    b = scale * (f(times, x_step[:, ::-1], states) - values) / run[:, ::-1]  # T sign f_y
                    # D maps a constant to 0: relative to the value at T, exactly so; w - 1 solves jac (w - 1) = a + b,
                    # so w is 1 exactly where f ignores the state
                    r = (states - states[..., -1:]).reshape(k, 2 * m) @ level.newton.T - (scale * values).reshape(k, 2 * m)
                    np.negative(r, out=rhs[..., 0])
                    np.add(a.reshape(k, 2 * m), b.reshape(k, 2 * m), out=rhs[..., 1])
                    if not np.isfinite(rhs).all():  # a + b holds all f terms of jac
                        raise NonFinite("the collocation residual or Jacobian became non-finite")
                    jac[...] = level.newton
                    diagonal -= a.reshape(k, 2 * m)
                    upper -= b[:, 0]
                    lower -= b[:, 1]
                    try:
                        solution = np.linalg.solve(jac, rhs).reshape(k, 2, m, 2)
                    except np.linalg.LinAlgError:
                        raise SingularJacobian("the collocation Jacobian is singular") from None
                    z, w = solution[..., 0], solution[..., 1]
                    states, size = states + z, np.max(np.abs(z))
                    if not (np.isfinite(states).all() and np.isfinite(w).all()):
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

        (g, slope, (states, w)), before = _damped_newton(step, evaluate(start)[0], newton_tol, max_newton, record, True)
        if before is not None:  # a degree that takes no step keeps the secant of the last one that did
            g_before, _, (states_before, _) = before
            run = states[1, -1] - states_before[1, -1]
            secant = (g - g_before) / run
            # sqrt|g| is linear in p near a double root, so its chord through the last two iterates puts the root
            # this far from p, with no use of w, whose forward-difference f_x and f_y may bias g' there
            fall = math.sqrt(abs(g_before)) - math.sqrt(abs(g))
            reach = abs(run) * math.sqrt(abs(g)) / fall if fall else math.inf
        c = chebyshev.coefficients(states.T).T  # rows v, u
        record.degree, record.tail = n, max(chebyshev.tail(row) for row in c)
        if all(chebyshev.standard_chop(row) < m for row in c):
            break
        if n < COLLOCATION_DEGREES[-1]:
            start = chebyshev.interpolate(states.T, chebyshev.level(2 * n).points).T[None]
    else:
        record.stop = "unresolved"
        raise NoConvergence(f"unresolved at N = {n}, tail {record.tail:.1e}", last_defect=g, iterations=record.iterations, newton=record)
    # where Newton stopped on Schroeder's step the root is double, and -2g/g' steps onto it up to w's bias.
    # Elsewhere the tangent's step would halve the distance to a double root, which one more iteration would
    # not; the secant's moves it by about a tenth, at a simple root as the tangent's
    record.multiplicity = 2 if record.steps[-1:] == [2.0] else 1
    stepped, secant = secant is not None, slope if secant is None else secant
    double = record.multiplicity == 2 and slope != 0
    delta = -2 * g / slope if double else -g / secant if secant else 0.0
    # how far the returned p may lie from the root: without a step, 2|g/g'| bounds it at a simple or a double root;
    # after the secant's step, twice that step's difference from the tangent's, which is of the order of its own
    # error at a simple root and 0.8 of the distance it leaves at a double one; after Schroeder's step, the chord's
    # distance plus the step.  g = 0 is a root whatever the slope
    root_gap = 0.0 if g == 0 else reach + abs(delta) if double else 2 * abs(g / slope + (delta if stepped else 0.0)) if slope else math.inf
    return (states + delta * w).T, w.T, root_gap, secant


@dataclass
class FilterVerdict:
    """Genuine/spurious classification of a system trajectory."""

    genuine: bool
    reflection_defect: float
    boundary_defect: float
    worst_t: float | None = None


def filter_reflection_solution(sol: SystemSolution, tol: float = 1e-8, periodic: bool = True) -> FilterVerdict:
    """Accept a system trajectory only if it solves the reflection problem.

    Genuine iff y(t) = x(-t) on the grid and, if periodic, x(T) = x(-T).
    The grid must be symmetric to 1e-12*T so x(-t_i) is a grid value, and
    tol finite and >= 0.
    """
    if not (check_real_scalar("tol", tol) and tol >= 0):
        raise ValueError("tol must be finite and >= 0")
    times = sol.times
    if len(times) == 0:
        raise ValueError("trajectory must hold at least one point")
    with np.errstate(over="ignore"):  # a difference of finite values may overflow to inf, which is then the defect
        if not np.all(np.abs(times + times[::-1]) <= 1e-12 * abs(times[-1])):
            raise ValueError("trajectory grid must be symmetric about 0")
        defects = np.abs(sol.y_values - sol.x_values[::-1])
        bdry = float(abs(sol.x_values[-1] - sol.x_values[0])) if periodic else 0.0
    i = int(np.argmax(defects))
    refl = float(defects[i])
    genuine = refl <= tol and bdry <= tol
    return FilterVerdict(
        genuine=genuine,
        reflection_defect=refl,
        boundary_defect=bdry,
        worst_t=None if genuine else float(times[i]),
    )


def sinh_fixture():
    """f = sinh with inverse and derivative, and phi'(t) = -1 of the reflection phi(t) = -t."""
    return dict(
        f_scalar=math.sinh,
        finv=math.asinh,
        fprime=math.cosh,
        dphi=lambda t: -1.0,
    )


def logistic_family_solution(c: float, times) -> SystemSolution:
    """Closed-form family solving the system for f(t, y, x) = x*y.

    (x, y)(t) = (c e^{ct}/(e^{ct}+1), c/(e^{ct}+1)).  Every member meets the
    system boundary condition, but only c = 0 solves the reflection problem.
    """
    if not check_real_scalar("c", c):
        raise ValueError("c must be finite")
    times = real_array("times", times)
    e = np.exp(c * times)
    return SystemSolution(times=times, y_values=c / (e + 1.0), x_values=c * e / (e + 1.0))
