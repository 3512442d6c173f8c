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

from .errors import NoConvergence, NonFinite, SingularJacobian
from .kernel import check_lattice_size, check_real_scalar, real_array
from .linsolve import vectorized, write_csv


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
#: a decade of where |F| crosses newton_tol.
OVER_RELAXATION = 1.8

#: lam_k = 2(1 - c^k) up to where it rounds to 2: at a double root each
#: extrapolated step cuts the error by c = 1 - OVER_RELAXATION/2 (and |g| by
#: c^2), so k of them in a row reach lam_k times the first one's Newton step.
_CONTRACTION = 1.0 - OVER_RELAXATION / 2.0
_LADDER = tuple(lam for k in range(1, 64) if (lam := 2.0 * (1.0 - _CONTRACTION**k)) < 2.0)

#: shoot_periodic's coarse grid: n_steps // COARSE_FACTOR steps, rounded down
#: to even, and used only with at least COARSE_MIN_STEPS (from n_steps = 800)
COARSE_FACTOR = 8
COARSE_MIN_STEPS = 100


@dataclass
class NewtonRecord:
    """What shoot_periodic did, for diagnostics.

    defect_norms holds |g(p)| at the guess and at every accepted point;
    integrations counts batched half-interval RK4 runs, rejected damping
    trials included.  steps holds each iteration's accepted damping factor
    (OVER_RELAXATION marks an extrapolated step, a larger lam_k = 2(1 - c^k)
    a walk down the ladder worth k extrapolated iterations, 0.0 an
    iteration whose damping failed) and slopes the forward-difference g'(p)
    its Newton step divided by; it falls towards 0 at a singular root.
    stop is "converged", "damping failed" or "max_newton".  coarse is the
    coarse stage's record (shoot_periodic), None where it did not run; its
    stop reads "<exception name>: <why>" where the fine stage fell back.
    error_estimate estimates the returned trajectory's max error over both
    rows: Richardson's max|coarse - fine[::COARSE_FACTOR]| / (COARSE_FACTOR^4
    - 1), RK4 being fourth order, plus 2|g/g'| at the returned point, which
    bounds the distance to a simple or a double root.  It is None where the
    coarse stage did not run or fell back, and where n_steps is not a
    multiple of 2 * COARSE_FACTOR, as the coarse nodes are then not fine nodes.
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


@dataclass
class SystemSolution:
    """Trajectory of the (y, x) system on a uniform grid over [-T, T], as float arrays.

    newton is set by shoot_periodic and is not part of any output file.
    """

    times: np.ndarray
    y_values: np.ndarray
    x_values: np.ndarray
    newton: NewtonRecord | None = None

    def __post_init__(self):
        self.times = real_array("times", self.times)
        self.y_values = real_array("y_values", self.y_values)
        self.x_values = real_array("x_values", self.x_values)

    def to_csv(self, fh) -> None:
        """Write t, y, x and z, w = (x + y)/2, (x - y)/2 as CSV to the open text file fh."""
        _, z, w = xi_inverse(self.times, self.y_values, self.x_values)
        write_csv(fh, ["t", "y", "x", "z", "w"], self.times, self.y_values, self.x_values, z, w)


#: values per stage that integrate_rk4 signs at once: it builds the signed
#: stage times one block of steps at a time, never n_steps rows of them, and
#: checks the block's new states for non-finite entries once, at its end
RK4_BLOCK = 4096


def _check_finite(times, states, first: int, stop: int) -> None:
    """Raise NonFinite at the first of states[first+1 : stop+1] with a non-finite entry."""
    rows = states[first + 1 : stop + 1]
    if not np.isfinite(rows).all():
        bad = int(np.argmin(np.isfinite(rows).reshape(len(rows), -1).all(axis=1)))
        raise NonFinite(f"state became non-finite at t={times[first + 1 + bad]}")


def integrate_rk4(rhs: Callable, start: float, end: float, init, n_steps: int, sign=1.0):
    """Classical fixed-step RK4 in 1..MAX_LATTICE_POINTS steps; returns (times, states) with the full trajectory.

    start and end must be finite (ValueError before rhs is called), and
    init has shape (dim,) or (dim, k); the k columns are independent states
    advanced together, so rhs must map arrays of init's shape columnwise.
    states has shape (n_steps+1,) + init.shape.  Raises NonFinite at the
    first step whose state has a non-finite entry, or where rhs raises
    OverflowError.  A non-finite entry stays non-finite in later steps, so
    the states are checked once per block of steps (RK4_BLOCK) and rhs may
    see a non-finite state until that block ends; if rhs raises, the rows
    before the failing step are checked first, so an earlier non-finite
    state still raises NonFinite, and any other exception of rhs propagates.

    sign is 1.0 or one sign (+-1) per row of the state; the system is then
    y' = sign * rhs(sign * t, y).  rhs gets the signed time, at the state's
    shape for row signs, and returns the unsigned derivative; the signs ride
    in the step coefficients h/2, h and h/6.  Multiplying by +-1 is exact and
    rounding is symmetric, so the trajectory is bit for bit that of the
    signed rhs with sign 1.0.

    Each step is y + sixth * (((k1 + 2 k2) + 2 k3) + k4) with 2 k as k + k,
    which is the same double.  Every add and mul writes into its last
    argument: the second and third stage arguments into two reused buffers,
    the fourth into the next row of states, so a k that rhs returns as a
    view of its argument stays intact until it is summed.
    """
    if not (check_real_scalar("start", start) & check_real_scalar("end", end)):
        raise ValueError("start and end must be finite")
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
    a, b = np.empty_like(y), np.empty_like(y)
    add, mul = np.add, np.multiply
    block = max(1, RK4_BLOCK // max(1, sign.size))
    # overflow is expected on blow-up and surfaces as NonFinite, not a warning;
    # a scalar rhs such as math.sinh raises OverflowError instead
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n_steps, block):
            stop = min(first + block, n_steps)
            t = times[first:stop].reshape((-1,) + (1,) * sign.ndim)
            stage_times = t * sign, (t + h / 2) * sign, (t + h) * sign
            steps = zip(range(first, stop), states[first:stop], states[first + 1 :], *stage_times)
            try:
                for i, y, new, t1, t2, t4 in steps:
                    k1 = np.asarray(rhs(t1, y), float)
                    k2 = np.asarray(rhs(t2, add(y, mul(half, k1, a), a)), float)
                    k3 = np.asarray(rhs(t2, add(y, mul(half, k2, b), b)), float)
                    k4 = np.asarray(rhs(t4, add(y, mul(full, k3, new), new)), float)
                    add(k1, add(k2, k2, a), a)
                    add(a, add(k3, k3, b), a)
                    add(y, mul(sixth, add(a, k4, a), a), new)
            except Exception as exc:
                _check_finite(times, states, first, i)
                if isinstance(exc, OverflowError):
                    raise NonFinite(f"rhs overflowed in the step from t={times[i]}") from exc
                raise
            _check_finite(times, states, first, stop)
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
    return np.concatenate([-times[:0:-1], times]), np.concatenate([states[:0:-1, ::-1], states])


def integrate_ivp(problem: NonlinearProblem, x0: float, n_steps: int) -> SystemSolution:
    """Trajectory on [-T, T] with x(0) = x0: RK4 from t = 0 out to T, mirrored onto [-T, 0]."""
    if not check_real_scalar("x0", x0):
        raise ValueError("x0 must be finite")
    times, states = integrate_mirrored(problem, (x0, x0), n_steps, False)
    return SystemSolution(times=times, y_values=states[:, 0], x_values=states[:, 1])


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
    halves to 1/2, 1/4, ... with one point per trial.  The first trial also
    carries p + lam_k * delta for the k = 2, 3, ... extrapolated iterations
    |g| would need at a double root (_LADDER); a winning extrapolated step
    walks on to lam_k+1 while |g| is above newton_tol and falls, to no
    less than c^2/2 times its value.  A trial whose integration turns
    non-finite in any column counts as too large, so a blow-up in the
    extrapolated step or the ladder rejects the full step with it.
    newton_tol must be finite and positive, max_newton >= 0, p finite.  After
    30 halvings NoConvergence reports the Newton iteration it failed in.
    NonFinite at the guess itself propagates, and a zero or non-finite
    slope raises SingularJacobian.  The returned solution's `newton` field
    (and a NoConvergence's) records what Newton did.

    All arguments are checked first.  Where n_steps // COARSE_FACTOR (even)
    reaches COARSE_MIN_STEPS, Newton runs on that coarse grid first and the
    fine one starts at its root, within the RK4 error O(h^4) of its own, so
    it takes about one iteration; it starts at the guess where the coarse
    stage raises NoConvergence, NonFinite or SingularJacobian.
    """
    if not (check_real_scalar("newton_tol", newton_tol) and newton_tol > 0):
        raise ValueError("newton_tol must be finite and strictly positive")
    check_lattice_size("max_newton", max_newton, 1, minimum=0)
    check_lattice_size("n_steps", n_steps, 1)
    if n_steps % 2:
        raise ValueError("n_steps must be even")
    a, b = guess
    if not (check_real_scalar("guess[0]", a) & check_real_scalar("guess[1]", b) and math.isfinite(p := (float(a) + float(b)) / 2.0)):
        raise ValueError("guess must give a finite p = (a + b)/2")
    coarse, coarse_sol, n_coarse = None, None, n_steps // COARSE_FACTOR // 2 * 2
    if n_coarse >= COARSE_MIN_STEPS:
        coarse = NewtonRecord()
        try:
            coarse_sol = _newton(problem, p, n_coarse, newton_tol, max_newton, coarse)
            p = float(coarse_sol.x_values[-1])  # every trajectory ends at (y, x)(T) = (p, p)
        except (NoConvergence, NonFinite, SingularJacobian) as exc:
            coarse.stop = f"{type(exc).__name__}: {coarse.stop or exc}"
    nested = coarse_sol if n_steps == COARSE_FACTOR * n_coarse else None
    return _newton(problem, p, n_steps, newton_tol, max_newton, NewtonRecord(coarse=coarse), nested)


def _newton(problem, p, n_steps, newton_tol, max_newton, record: NewtonRecord, coarse=None) -> SystemSolution:
    """shoot_periodic's damped Newton from p on the one grid of n_steps steps, filling record.

    coarse, a converged solution on every COARSE_FACTOR-th node, gives record its error_estimate.
    """

    def evaluate(*points):
        """(g, forward-difference slope, (y, x) trajectory) at each point."""
        record.integrations += 1
        base = np.array(points)
        steps = 1e-7 * (1.0 + np.abs(base))
        # columns 2j, 2j+1: point j and its difference column
        columns = np.column_stack([base, base + steps]).ravel()
        _, states = integrate_mirrored(problem, [columns, columns], n_steps, True)
        y0, x0 = states[n_steps // 2]
        g = x0 - y0
        slopes = (g[1::2] - g[::2]) / steps
        return [(float(g[2 * j]), float(slopes[j]), states[:, :, 2 * j]) for j in range(len(points))]

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
        # as many rungs as iterations at contraction c^2 take |g| to newton_tol
        depth = math.ceil((math.log(norm) - math.log(newton_tol)) / -math.log(_CONTRACTION**2))
        lams = (1.0, *_LADDER[: max(1, depth)])
        for _ in range(30):
            try:
                trials = evaluate(*(p + lam * delta for lam in lams))
            except NonFinite:
                trials = []
            norms = [abs(trial[0]) for trial in trials]
            if norms and min(norms[:2]) < norm:
                break
            lams = (lams[0] / 2.0,)
            record.halvings += 1
        else:
            record.steps.append(0.0)
            record.stop = "damping failed"
            raise NoConvergence(
                "damping failed to reduce the defect", last_defect=g, iterations=record.iterations, newton=record
            )
        # argmin keeps the first of equal defects, so the full step wins a tie;
        # a deeper drop than the ladder's model is a lucky landing, which would
        # tie the stop's accuracy to the guess (see OVER_RELAXATION)
        k = int(np.argmin(norms[:2]))
        while 0 < k < len(norms) - 1 and norms[k] > newton_tol and (
            _CONTRACTION**2 / 2 * norms[k] <= norms[k + 1] < norms[k]
        ):
            k += 1
        lam, (g, slope, path) = lams[k], trials[k]
        p = p + lam * delta
        record.steps.append(lam)
        record.defect_norms.append(abs(g))
    record.stop = "converged"
    if coarse is not None:
        fine = path[::COARSE_FACTOR]
        drift = max(np.max(np.abs(coarse.y_values - fine[:, 0])), np.max(np.abs(coarse.x_values - fine[:, 1])))
        # g = 0 is a root whatever the slope there
        root_gap = 0.0 if g == 0 else 2 * abs(g / slope) if slope else math.inf
        record.error_estimate = float(drift) / (COARSE_FACTOR**4 - 1) + root_gap
    times = -problem.T + 2 * problem.T / n_steps * np.arange(n_steps + 1)
    return SystemSolution(times=times, y_values=path[:, 0], x_values=path[:, 1], newton=record)


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
    if not np.all(np.abs(times + times[::-1]) <= 1e-12 * abs(times[-1])):
        raise ValueError("trajectory grid must be symmetric about 0")
    defects = np.abs(sol.y_values - sol.x_values[::-1])
    i = int(np.argmax(defects))
    refl = float(defects[i])
    bdry = float(abs(sol.x_values[-1] - sol.x_values[0])) if periodic else 0.0
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
    times = real_array("times", times)
    e = np.exp(c * times)
    return SystemSolution(times=times, y_values=c / (e + 1.0), x_values=c * e / (e + 1.0))
