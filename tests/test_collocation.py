"""collocate_periodic, the half-interval Chebyshev collocation, against known solutions and the other layers.

Each bound comes from what should hold, not from a measurement: the
errors from the spectral accuracy of 33 points on an analytic solution, the
differential bounds from the quadrature and monotone layers' own accuracy,
and the band of the linear convergence from the extrapolated step's
contraction.
"""

import math

import manufactured
import numpy as np
import pytest

from refleq.catalog import hyperbolic_lag, product_nonlinearity
from refleq.chebyshev import interpolate
from refleq.kernel import ProblemParams
from refleq.linsolve import GridFunction, ReflectionProblem, solve_grid
from refleq.monotone import BracketOrdering, LowerUpperPair, iterate
from refleq.reduce import (
    OVER_RELAXATION,
    NonlinearProblem,
    collocate_periodic,
    filter_reflection_solution,
    integrate_mirrored,
)


def at(sol, t):
    """The collocated x at the points t of [-T, T], by the barycentric formula on the half it was solved on."""
    T = sol.times[-1]
    half = np.column_stack([sol.y_values, sol.x_values])[len(sol.times) // 2 :]
    values = interpolate(half, np.abs(t) / T)
    return np.where(t >= 0, values[:, 1], values[:, 0])


@pytest.mark.parametrize("kinked", [False, True], ids=["smooth", "kinked"])
def test_the_error_on_a_non_constant_solution_is_at_rounding_level(kinked):
    # the kink of 0.1*|t|^3 sits at t = 0, an end of the half interval, so it costs nothing
    x_star, f = manufactured.periodic_solution(kinked)
    sol = collocate_periodic(NonlinearProblem(f=f, T=manufactured.T), guess=(0.5, 0.5))
    t = sol.times
    assert sol.newton.stop == "converged" and filter_reflection_solution(sol).genuine
    assert max(np.max(np.abs(sol.x_values - x_star(t))), np.max(np.abs(sol.y_values - x_star(-t)))) <= 1e-14
    fine = np.linspace(-manufactured.T, manufactured.T, 101)
    assert np.max(np.abs(at(sol, fine) - x_star(fine))) <= 1e-14


@pytest.mark.parametrize("m, h", [(0.5, np.cos), (1.3, lambda t: np.exp(t) - t**2)], ids=["cos", "exp"])
def test_a_linear_problem_matches_the_quadrature_solver(m, h):
    # f = h(t) - m*y is x'(t) + m x(-t) = h(t) with x(-T) = x(T), solve_grid's problem at lambda = 0
    T = 1.0
    sol = collocate_periodic(NonlinearProblem(f=lambda t, y, x: h(t) - m * y, T=T))
    grid = solve_grid(ReflectionProblem(ProblemParams(m, T), h, 0.0), n=200, n_quad=2000)
    assert sol.newton.stop == "converged"
    assert np.max(np.abs(at(sol, grid.grid()) - grid.values)) <= 1e-10


def test_the_exa3_limits_of_the_monotone_iteration_are_the_collocated_solution():
    # exa3, x'(t) = lam sinh(t - x(-t)), has one periodic solution in its bracket, so both monotone limits are it
    lam, T, n = 0.1, 1.0, 256
    bracket = LowerUpperPair(
        GridFunction.from_callable(lambda t: T, T, n), GridFunction.from_callable(lambda t: -T, T, n), BracketOrdering.LOWER_ABOVE_UPPER
    )
    lag = hyperbolic_lag(lam)
    report = iterate(lag, bracket, m=math.pi / 4, tol=1e-12, max_iters=200)
    sol = collocate_periodic(NonlinearProblem(f=lambda t, y, x: lag(t, y), T=T))
    assert report.converged and sol.newton.stop == "converged"
    expected = at(sol, bracket.lower.grid())
    for limit in (report.iterates_lower[-1], report.iterates_upper[-1]):
        assert np.max(np.abs(limit.values - expected)) <= 1e-10


def test_the_double_root_of_x_y_converges_linearly_with_extrapolated_steps():
    # at the double root p = 0 the full Newton step halves the distance and the
    # extrapolated one divides it by ten, so |g| ~ p^2 falls a hundredfold per
    # iteration; from p = 0.3 the first two iterations are not yet that close
    sol = collocate_periodic(NonlinearProblem(f=product_nonlinearity, T=1.0), guess=(0.3, 0.3))
    record = sol.newton
    assert record.stop == "converged" and record.integrations == 0
    assert record.iterations >= 4 and record.steps[2:] == [OVER_RELAXATION] * (record.iterations - 2)
    ratios = np.array(record.defect_norms[1:]) / np.array(record.defect_norms[:-1])
    assert np.all((1e-3 <= ratios) & (ratios <= 1e-1)), ratios
    assert abs(record.slopes[-1]) < abs(record.slopes[0]) / 100  # g'(p) ~ p falls towards 0
    assert filter_reflection_solution(sol).genuine
    assert np.max(np.abs(sol.x_values)) <= 1e-5


def test_a_root_as_guess_takes_no_newton_step():
    # README reduce: x = 0 solves x' = x(t) x(-t) exactly, so the collocation residual is 0
    sol = collocate_periodic(NonlinearProblem(f=product_nonlinearity, T=1.0))
    assert (sol.newton.iterations, sol.newton.defect_norms, sol.newton.stop) == (0, [0.0], "converged")
    assert not np.any(sol.x_values) and not np.any(sol.y_values)


def test_the_grid_is_the_mirrored_chebyshev_points():
    T = np.finfo(float).tiny  # f is multiplied by T, so the smallest normal T gives a finite system
    sol = collocate_periodic(NonlinearProblem(f=product_nonlinearity, T=T), guess=(0.1, 0.1))
    z = (1.0 - np.cos(np.pi * np.arange(33) / 32)) / 2.0
    assert np.array_equal(sol.times, np.concatenate([-T * z[:0:-1], T * z]))
    assert filter_reflection_solution(sol).genuine
    assert np.max(np.abs(sol.x_values - 0.1)) <= 1e-12


def test_a_trial_whose_trajectory_does_not_converge_counts_as_too_large():
    # from x = 0.15 the full steps of x' = 0.5 - x(-t)^3 + 0.1 t x(t) land where Newton at fixed p
    # diverges, so, as a blow-up does in shooting, they are rejected and the step is halved
    problem = NonlinearProblem(f=lambda t, y, x: 0.5 - y**3 + 0.1 * t * x, T=0.5)
    sol = collocate_periodic(problem, guess=(0.2, 0.1))
    assert sol.newton.stop == "converged" and sol.newton.steps[0] < 1.0
    p = sol.x_values[-1]
    times, states = integrate_mirrored(problem, (p, p), 400, True)
    assert np.max(np.abs(at(sol, times) - states[:, 1])) <= 1e-9
