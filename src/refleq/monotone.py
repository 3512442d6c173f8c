"""Monotone iteration between lower and upper solutions for x'(t) = f(t, x(-t)).

Each sweep linearizes by adding m*x(-t) to both sides and inverting the
linear operator x' + m*x(-t) with periodic conditions, which is inverse
positive for m in (0, pi/(4T)] and inverse negative for the mirrored window.
Starting from a validated lower/upper pair, the two sequences are monotone
and bracket the extremal solutions; the reports certify monotonicity and the
final nonlinear residual, not extremality itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable

import numpy as np
from scipy.linalg import lapack
from scipy.linalg import solve as dense_solve

from .errors import BadWindow, MonotonicityBroken
from .kernel import ProblemParams, SignClass, check_lattice_size, check_real_scalar, real_array, sign_class
from .linsolve import GridFunction, PeriodicGreenSolver, ReflectionProblem, residual, vectorized

#: margin below zero that check_lower and check_upper forgive at interior grid points
CHECK_SLACK = 1e-8
#: amount by which iterate lets an iterate break the expected ordering
MONOTONE_SLACK = 1e-10


class SplineAt:
    """The not-a-knot cubic spline through (grid, values), evaluated at fixed points.

    Everything that depends only on the grid and the points is computed
    once: the spacings, the LU factors of the spline's linear system, and
    each point's interval and powers z, z^2, z^2*z.  A call takes the values
    and returns the spline at the points, bit for bit what scipy's
    CubicSpline(grid, values)(points) returns: the right-hand side uses
    scipy's expressions in scipy's order, LAPACK gttrs solves with the gttrf
    factors by gtsv's own operations (a 3-point grid takes the dense solve
    of the parabola system), and each point is the sum
    ((c3 + c2*z) + c1*z^2) + c0*(z^2*z) that PPoly evaluates.  Points
    outside the grid extrapolate the end pieces; a NaN point gives NaN.
    """

    def __init__(self, grid, points):
        x = real_array("grid", grid)
        n = len(x)
        if x.ndim != 1 or n < 3 or not np.all(np.isfinite(x)) or np.any(np.diff(x) <= 0):
            raise ValueError("grid must be a finite increasing sequence of at least 3 points")
        self._dx = dx = np.diff(x)
        if n == 3:  # both not-a-knot conditions coincide: the parabola through the points
            self._parabola = np.array([[1.0, 1.0, 0.0], [dx[1], 2 * (dx[0] + dx[1]), dx[0]], [0.0, 1.0, 1.0]])
        else:
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            *self._factors, info = lapack.dgttrf(
                np.concatenate([dx[1:], [d1]]),
                np.concatenate([[dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]]),
                np.concatenate([[d0], dx[:-1]]),
            )
            if info:
                raise np.linalg.LinAlgError("singular spline system")
            # first and last rows of the right-hand side: (a*slope0 + b*slope1) / d
            self._ends = ((dx[0] + 2 * d0) * dx[1], dx[0] ** 2, d0), (dx[-1] ** 2, (2 * d1 + dx[-1]) * dx[-2], d1)
        p = real_array("points", points)
        self._interval = np.clip(np.searchsorted(x, p, "right") - 1, 0, n - 2)
        self._z = p - x[self._interval]
        self._z2 = self._z * self._z
        self._z3 = self._z2 * self._z

    def __call__(self, values) -> np.ndarray:
        y = real_array("values", values)
        dx = self._dx
        slope = np.diff(y) / dx
        if len(y) == 3:
            b = np.array([[2 * slope[0]], [3 * (dx[0] * slope[1] + dx[1] * slope[0])], [2 * slope[1]]])
            s = dense_solve(self._parabola, b, check_finite=False)[:, 0]
        else:
            b = np.empty((len(y), 1))
            b[1:-1, 0] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
            (a0, b0, d0), (a1, b1, d1) = self._ends
            b[0, 0] = (a0 * slope[0] + b0 * slope[1]) / d0
            b[-1, 0] = (a1 * slope[-2] + b1 * slope[-1]) / d1
            s = lapack.dgttrs(*self._factors, b, overwrite_b=True)[0][:, 0]
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        i = self._interval  # at most n - 2, so s and y need not be cut to their first n - 1 entries
        c0, c1, c2, c3 = (t / dx).take(i), ((slope - s[:-1]) / dx - t).take(i), s.take(i), y.take(i)
        return ((c3 + c2 * self._z) + c1 * self._z2) + c0 * self._z3


def reflected_forcing(grid, points, m: float, rhs: Callable) -> Callable:
    """values -> h(points), h(s) = rhs(s, x(-s)) + m*x(-s), x the spline through (grid, values).

    This is the forcing of one fixed-point step for x'(t) = f(...), with x
    the not-a-knot cubic spline (SplineAt) through the grid values.  The
    spline at -points is set up once and evaluated once per call; m must
    be finite (ValueError before rhs is called).
    """
    if not check_real_scalar("m", m):
        raise ValueError("m must be finite")
    s = real_array("points", points)
    reflected = SplineAt(grid, -s)

    def h(values) -> np.ndarray:
        y = reflected(values)
        return rhs(s, y) + m * y

    return h


class BracketOrdering(Enum):
    LOWER_ABOVE_UPPER = "lower_above_upper"  # lower >= upper, m > 0 regime
    LOWER_BELOW_UPPER = "lower_below_upper"  # lower <= upper, m < 0 regime


@dataclass
class LowerUpperPair:
    """Lower/upper solution bracket on a shared symmetric grid."""

    lower: GridFunction
    upper: GridFunction
    ordering: BracketOrdering

    def __post_init__(self):
        if not isinstance(self.ordering, BracketOrdering):
            raise ValueError(f"ordering must be a BracketOrdering member, got {self.ordering!r}")
        if self.lower.n != self.upper.n or self.lower.T != self.upper.T:
            raise ValueError("lower and upper must share the same grid")
        gap = self.lower.values - self.upper.values
        if self.ordering is BracketOrdering.LOWER_ABOVE_UPPER and np.any(gap < -1e-12):
            raise ValueError("declared ordering lower >= upper does not hold on the grid")
        if self.ordering is BracketOrdering.LOWER_BELOW_UPPER and np.any(gap > 1e-12):
            raise ValueError("declared ordering lower <= upper does not hold on the grid")


@dataclass
class Validity:
    valid: bool
    violations: list = field(default_factory=list)  # (t, margin) pairs


def _inequality_check(candidate: GridFunction, f: Callable, sign: int) -> Validity:
    """sign=+1 checks derivative >= f (lower solution), sign=-1 the reverse."""
    t = candidate.grid()
    v = candidate.values
    step = t[1] - t[0]
    dv = (v[2:] - v[:-2]) / (2.0 * step)
    margins = sign * (dv - vectorized(f)(t[1:-1], v[::-1][1:-1]))
    bad = np.flatnonzero(~(margins >= -CHECK_SLACK))  # a NaN margin is a violation
    violations = list(zip(t[1 + bad].tolist(), margins[bad].tolist()))
    boundary = sign * (v[0] - v[-1])
    if boundary < -1e-12:
        violations.append((float(t[-1]), float(boundary)))
    return Validity(valid=not violations, violations=violations)


def check_lower(candidate: GridFunction, f: Callable) -> Validity:
    """Discrete lower-solution test: x' >= f(t, x(-t)) and x(-T) >= x(T)."""
    return _inequality_check(candidate, f, +1)


def check_upper(candidate: GridFunction, f: Callable) -> Validity:
    """Discrete upper-solution test: x' <= f(t, x(-t)) and x(-T) <= x(T)."""
    return _inequality_check(candidate, f, -1)


def _require_window(m: float, T: float):
    """Raise BadWindow unless m is finite and Gbar is one-signed for alpha = m*T (kernel.sign_class)."""
    if not check_real_scalar("m", m) or sign_class(m * T) is SignClass.MIXED_SIGN:
        raise BadWindow(f"m={m} outside the inverse-positive/negative windows for T={T}")


@dataclass
class LipschitzReport:
    holds: bool
    min_margin: float
    witness: tuple | None = None  # (t, x, y)


def one_sided_lipschitz_check(
    f: Callable, bracket: LowerUpperPair, m: float, n_t: int = 41, n_xy: int = 41
) -> LipschitzReport:
    """Sample the one-sided Lipschitz condition on admissible (t, x, y) triples.

    For m > 0: f(t,x) - f(t,y) >= -m(x-y) on y <= x inside the bracket; for
    m < 0 the reversed inequality.  Sampling evidence only, never a proof.
    """
    for name, side in (("n_t", n_t), ("n_xy", n_xy)):
        check_lattice_size(name, side, 1, minimum=-math.inf)  # the minimums are checked jointly below
    if n_t < 1 or n_xy < 2:
        raise ValueError("n_t must be >= 1 and n_xy >= 2")
    check_lattice_size("n_t*n_xy**2", int(n_t) * int(n_xy) ** 2, 1)
    T = bracket.lower.T
    _require_window(m, T)
    grid = bracket.lower.grid()
    idx = np.unique(np.linspace(0, len(grid) - 1, n_t).astype(int))
    lo = np.minimum(bracket.lower.values, bracket.upper.values)[idx]
    hi = np.maximum(bracket.lower.values, bracket.upper.values)[idx]
    t = grid[idx]
    xs = np.linspace(lo, hi, n_xy, axis=1)  # row i samples [lo, hi] at t[i]
    fx = vectorized(f)(t[:, None], xs)
    # margins[i, j, k] compares y = xs[i, j] with x = xs[i, k]; only k >= j is admissible
    diff = fx[:, None, :] - fx[:, :, None]
    gap = xs[:, None, :] - xs[:, :, None]
    margins = diff + m * gap if m > 0 else -(m * gap) - diff
    margins[:, np.tri(n_xy, k=-1, dtype=bool)] = math.inf
    i, j, k = np.unravel_index(np.argmin(margins), margins.shape)
    best = float(margins[i, j, k])
    return LipschitzReport(holds=best >= 0.0, min_margin=best, witness=(float(t[i]), float(xs[i, k]), float(xs[i, j])))


@dataclass
class IterationReport:
    """Certificates from the monotone iteration: iterates, gaps, steps, residuals.

    `converged` says the last step, step_history[-1], is <= tol; the gap
    may still be larger.  to_dict leaves out the iterates and step_history.
    """

    iterates_lower: list  # GridFunction sequence starting at the lower solution
    iterates_upper: list
    converged: bool
    iterations: int
    final_gap: float
    gap_history: list
    step_history: list  # per sweep, the larger sup-norm step of the two sequences
    residual_lower: float
    residual_upper: float
    m_used: float
    monotone: bool = True
    note: str = "approximation of the extremal solutions; extremality not certified"

    def to_dict(self):
        left_out = ("iterates_lower", "iterates_upper", "step_history")
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in left_out}


def _sup_norm(d_max, d_min) -> float:
    """max|d| from d.max() and d.min(), exactly; abs makes an all-zero d give +0.0, as np.abs does."""
    return abs(max(float(d_max), -float(d_min)))


def iterate(
    f: Callable,
    bracket: LowerUpperPair,
    m: float,
    n_quad: int = 1024,
    max_iters: int = 60,
    tol: float = 1e-8,
) -> IterationReport:
    """Run the two monotone sequences from the bracket endpoints.

    Each step solves x' + m*x(-t) = f(t, x_n(-t)) + m*x_n(-t) with periodic
    conditions through the precomputed kernel quadrature; iterates are stored
    on the bracket grid (the first ones copies of the bracket's arrays) and
    enter the forcing through the not-a-knot cubic spline at the quadrature
    nodes (SplineAt), set up once per call.  Raises MonotonicityBroken if an
    iterate violates the expected ordering beyond MONOTONE_SLACK.
    """
    check_real_scalar("tol", tol)
    if not tol >= 0:
        raise ValueError("tol must be >= 0")
    check_lattice_size("max_iters", max_iters, 1, minimum=0)
    T = bracket.lower.T
    _require_window(m, T)
    params = ProblemParams(m=m, T=T)

    grid = bracket.lower.grid()
    solver = PeriodicGreenSolver(params, grid, n_quad=n_quad)
    rhs = vectorized(f)
    forcing = reflected_forcing(grid, solver.nodes, m, rhs)

    lower_seq, upper_seq = [bracket.lower.values.copy()], [bracket.upper.values.copy()]
    # the descending sequence starts at the larger endpoint, the ascending at the smaller
    above = bracket.ordering is BracketOrdering.LOWER_ABOVE_UPPER
    desc_seq, asc_seq = (lower_seq, upper_seq) if above else (upper_seq, lower_seq)
    gap_history = [float(np.max(np.abs(desc_seq[0] - asc_seq[0])))]
    step_history = []
    for _ in range(max_iters):
        new_desc = solver.solve(forcing(desc_seq[-1]))
        new_asc = solver.solve(forcing(asc_seq[-1]))
        # solve returns finite values, so no difference is NaN and any(d > slack)
        # is d.max() > slack; new_asc - new_desc is exactly -gap
        rise, fall, gap = new_desc - desc_seq[-1], asc_seq[-1] - new_asc, new_desc - new_asc
        rise_max, fall_max, gap_min = float(rise.max()), float(fall.max()), float(gap.min())
        if rise_max > MONOTONE_SLACK:
            raise MonotonicityBroken("descending sequence increased beyond slack")
        if fall_max > MONOTONE_SLACK:
            raise MonotonicityBroken("ascending sequence decreased beyond slack")
        if -gap_min > MONOTONE_SLACK:
            raise MonotonicityBroken("sequences crossed beyond slack")
        if (new_desc - desc_seq[0]).max() > MONOTONE_SLACK or (asc_seq[0] - new_asc).max() > MONOTONE_SLACK:
            raise MonotonicityBroken("iterate left the initial bracket")
        desc_seq.append(new_desc)
        asc_seq.append(new_asc)
        step_history.append(max(_sup_norm(rise_max, rise.min()), _sup_norm(fall_max, fall.min())))
        gap_history.append(_sup_norm(gap.max(), gap_min))
        if step_history[-1] <= tol:
            break

    iterates_lower = [GridFunction(T, v) for v in lower_seq]
    iterates_upper = [GridFunction(T, v) for v in upper_seq]

    def nonlinear_residual(u: GridFunction) -> float:
        return residual(ReflectionProblem(params, lambda s: reflected_forcing(grid, s, m, rhs)(u.values)), u)

    return IterationReport(
        iterates_lower=iterates_lower,
        iterates_upper=iterates_upper,
        converged=bool(step_history) and step_history[-1] <= tol,
        iterations=len(step_history),
        final_gap=gap_history[-1],
        gap_history=gap_history,
        step_history=step_history,
        residual_lower=nonlinear_residual(iterates_lower[-1]),
        residual_upper=nonlinear_residual(iterates_upper[-1]),
        m_used=m,
    )
