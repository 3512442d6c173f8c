"""shoot_periodic's coarse stage against the single-level Newton it wraps.

From n_steps = 8 * COARSE_MIN_STEPS on, shoot_periodic runs its damped
Newton on n_steps // COARSE_FACTOR steps first and starts the full grid's
Newton at that root.  reduce._newton is the single-level loop, shoot_periodic
as it was before the coarse stage, and serves as the differential oracle.
"""

import json
import math

import manufactured
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refleq.catalog import product_nonlinearity
from refleq.cli import run
from refleq.errors import NoConvergence, QuadratureFailure
from refleq.kernel import MAX_LATTICE_POINTS
from refleq.reduce import (
    COARSE_FACTOR,
    COARSE_MIN_STEPS,
    NewtonRecord,
    NonlinearProblem,
    _newton,
    filter_reflection_solution,
    integrate_ivp,
    shoot_periodic,
)


def single_level(problem, guess, n_steps, newton_tol=1e-10, max_newton=50):
    """The one-grid Newton from p = (a + b)/2, as shoot_periodic ran before its coarse stage."""
    p = (float(guess[0]) + float(guess[1])) / 2.0
    return _newton(problem, p, n_steps, newton_tol, max_newton, NewtonRecord())


def counting(f):
    """(f that counts its calls, the list it appends each call to)."""
    calls = []

    def counted(*args):
        calls.append(args)
        return f(*args)

    return counted, calls


def test_the_coarse_stage_starts_at_n_steps_800():
    assert COARSE_FACTOR * COARSE_MIN_STEPS == 800
    problem = NonlinearProblem(f=product_nonlinearity, T=1.0)
    assert shoot_periodic(problem, guess=(0.1, 0.1), n_steps=400).newton.coarse is None
    # 798 // 8 = 99 rounds down to a coarse grid of 98 steps, below the threshold
    assert shoot_periodic(problem, guess=(0.1, 0.1), n_steps=798).newton.coarse is None
    coarse = shoot_periodic(problem, guess=(0.1, 0.1), n_steps=800).newton.coarse
    assert coarse.stop == "converged" and coarse.coarse is None


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(n_steps=2003), "n_steps must be even"),
        (dict(n_steps=MAX_LATTICE_POINTS + 2), "above the cap"),
        (dict(max_newton=-1), "max_newton must be >= 0"),
        (dict(newton_tol=math.nan), "newton_tol"),
        (dict(guess=(math.nan, 0.0)), "finite p"),
        (dict(guess=(math.inf, -math.inf)), "finite p"),
        (dict(guess=(1e308, 1e308)), "finite p"),  # (a + b)/2 overflows to inf
        (dict(guess=None), "^guess must have two entries"),
        (dict(guess=0.5), "^guess must have two entries"),
        (dict(guess=(0.1,)), "^guess must have two entries"),
        (dict(guess=(0.1, 0.1, 0.1)), "^guess must have two entries"),
    ],
)
def test_arguments_are_checked_before_f_is_called(kwargs, message):
    f, calls = counting(product_nonlinearity)
    with pytest.raises(ValueError, match=message):
        shoot_periodic(NonlinearProblem(f=f, T=1.0), **{"guess": (0.1, 0.1), **kwargs})
    assert calls == []


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_a_non_finite_x0_is_rejected_before_f_is_called(x0):
    f, calls = counting(product_nonlinearity)
    with pytest.raises(ValueError, match="x0 must be finite"):
        integrate_ivp(NonlinearProblem(f=f, T=1.0), x0, 2000)
    assert calls == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--guess", "nan", "nan"], "guess must give a finite p = (a + b)/2"),
        (["--guess", "1e308", "1e308"], "guess must give a finite p = (a + b)/2"),
        (["--mode", "ivp", "--x0", "nan"], "x0 must be finite"),
        (["--mode", "ivp", "--x0", "-inf"], "x0 must be finite"),
    ],
)
def test_cli_non_finite_start_exits_1(flags, message, capsys):
    assert run(["reduce", "--example", "e-ex", *flags]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"error": "ValueError", "message": message}
    assert captured.out == ""


@settings(max_examples=8, deadline=None)
@given(
    guess=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    c=st.floats(-1.0, 1.0),
    m=st.floats(0.5, 2.0),
    n_steps=st.sampled_from([800, 2000]),
)
def test_coarse_to_fine_matches_the_single_level_oracle(guess, c, m, n_steps):
    # the regular root x = c/m is constant, which RK4 keeps on any grid, so
    # both paths end on the same trajectory up to rounding; at the double
    # root of x*y both stop within about a decade of where |g| crosses the
    # tolerance, so their errors are of the same order
    regular = NonlinearProblem(f=lambda t, y, x: c - m * y, T=1.0)
    ours, oracle = shoot_periodic(regular, guess=guess, n_steps=n_steps), single_level(regular, guess, n_steps)
    assert ours.newton.coarse.stop == "converged"
    assert np.array_equal(ours.times, oracle.times)
    assert np.max(np.abs(ours.y_values - oracle.y_values)) <= 1e-10
    assert np.max(np.abs(ours.x_values - oracle.x_values)) <= 1e-10
    singular = NonlinearProblem(f=product_nonlinearity, T=1.0)
    ours, oracle = shoot_periodic(singular, guess=guess, n_steps=n_steps), single_level(singular, guess, n_steps)
    assert filter_reflection_solution(ours).genuine and filter_reflection_solution(oracle).genuine
    err, oracle_err = np.max(np.abs(ours.x_values)), np.max(np.abs(oracle.x_values))
    assert oracle_err / 20 <= err <= 20 * oracle_err


@pytest.mark.parametrize("kinked", [False, True], ids=["smooth", "kinked"])
def test_the_fine_stage_polishes_a_non_constant_solution_in_one_iteration(kinked):
    # the coarse root lies within the RK4 error of the fine one, so one fine
    # Newton iteration reaches the single-level solution's accuracy
    x_star, f = manufactured.periodic_solution(kinked)
    problem = NonlinearProblem(f=f, T=manufactured.T)

    def error(sol):
        t = sol.times
        return max(np.max(np.abs(sol.x_values - x_star(t))), np.max(np.abs(sol.y_values - x_star(-t))))

    ours, oracle = shoot_periodic(problem, guess=(0.5, 0.5), n_steps=2000), single_level(problem, (0.5, 0.5), 2000)
    assert ours.newton.coarse.stop == "converged"
    assert ours.newton.stop == "converged" and ours.newton.iterations <= 1
    assert filter_reflection_solution(ours).genuine
    assert error(ours) <= 1.01 * error(oracle)


def test_a_coarse_no_convergence_falls_back_to_the_single_level_exception():
    problem = NonlinearProblem(f=product_nonlinearity, T=1.0)
    with pytest.raises(NoConvergence) as ours:
        shoot_periodic(problem, guess=(0.1, 0.1), n_steps=2000, max_newton=0)
    with pytest.raises(NoConvergence) as oracle:
        single_level(problem, (0.1, 0.1), 2000, max_newton=0)
    assert str(ours.value) == str(oracle.value)
    assert (ours.value.last_defect, ours.value.iterations) == (oracle.value.last_defect, oracle.value.iterations)
    assert ours.value.newton.stop == "max_newton"
    assert ours.value.newton.coarse.stop == "NoConvergence: max_newton"


def test_a_coarse_blow_up_falls_back_to_the_single_level_result():
    # f is NaN at its first call only: the coarse stage raises NonFinite at
    # the guess, so the fine stage starts from the guess, as a single-level
    # solve does
    calls = []

    def poisoned_once(t, y, x):
        calls.append(t)
        return x * y if len(calls) > 1 else np.full(np.shape(x), np.nan)

    problem = NonlinearProblem(f=poisoned_once, T=1.0)
    sol = shoot_periodic(problem, guess=(0.1, 0.1), n_steps=2000)
    oracle = single_level(NonlinearProblem(f=product_nonlinearity, T=1.0), (0.1, 0.1), 2000)
    assert sol.newton.coarse.stop.startswith("NonFinite: state became non-finite")
    assert np.array_equal(sol.y_values, oracle.y_values) and np.array_equal(sol.x_values, oracle.x_values)
    assert sol.newton.defect_norms == oracle.newton.defect_norms


def test_a_failing_f_propagates_from_the_coarse_stage():
    # a QuadratureFailure would recur on the fine grid, so no fine stage runs
    def failing(t, y, x):
        raise RuntimeError("boom")

    f, calls = counting(failing)
    with pytest.raises(QuadratureFailure, match="boom"):
        shoot_periodic(NonlinearProblem(f=f, T=1.0), n_steps=2000)
    coarse_calls = len(calls)
    with pytest.raises(QuadratureFailure, match="boom"):
        shoot_periodic(NonlinearProblem(f=f, T=1.0), n_steps=400)
    assert coarse_calls == len(calls) - coarse_calls


#: bounds on error_estimate / true error, fixed before measuring
ESTIMATE_RATIO = (0.5, 2.0)


@pytest.mark.parametrize("kinked", [False, True], ids=["smooth", "kinked"])
def test_the_error_estimate_matches_the_true_error(kinked):
    x_star, f = manufactured.periodic_solution(kinked)
    sol = shoot_periodic(NonlinearProblem(f=f, T=manufactured.T), guess=(0.5, 0.5), n_steps=2000)
    t = sol.times
    error = max(np.max(np.abs(sol.x_values - x_star(t))), np.max(np.abs(sol.y_values - x_star(-t))))
    assert ESTIMATE_RATIO[0] <= sol.newton.error_estimate / error <= ESTIMATE_RATIO[1]
    assert sol.newton.coarse.error_estimate is None


@pytest.mark.parametrize("guess", [(0.5, 0.5), (-0.5, -0.5), (0.3, -0.1), (-0.5, 0.2), (0.25, 0.25), (0.1, 0.1)])
def test_the_error_estimate_at_the_double_root_covers_newtons_stop(guess):
    # the genuine solution of x*y is x = 0; Newton stops about 1e-6 from
    # that double root, far above the RK4 error, and the estimate's Newton
    # term 2|g/g'| must say so
    sol = shoot_periodic(NonlinearProblem(f=product_nonlinearity, T=1.0), guess=guess, n_steps=2000)
    error = max(np.max(np.abs(sol.x_values)), np.max(np.abs(sol.y_values)))
    assert error > 1e-8
    assert ESTIMATE_RATIO[0] <= sol.newton.error_estimate / error <= ESTIMATE_RATIO[1]


@pytest.mark.parametrize("n_steps", [400, 1000], ids=["no-coarse-stage", "coarse-nodes-not-nested"])
def test_no_error_estimate_without_a_nested_coarse_solution(n_steps):
    # 1000 // 8 rounds down to a coarse grid of 124 steps, whose nodes are not fine nodes
    sol = shoot_periodic(NonlinearProblem(f=product_nonlinearity, T=1.0), guess=(0.1, 0.1), n_steps=n_steps)
    assert sol.newton.stop == "converged" and sol.newton.error_estimate is None


def test_no_error_estimate_where_the_coarse_stage_fell_back():
    calls = []

    def poisoned_once(t, y, x):
        calls.append(t)
        return x * y if len(calls) > 1 else np.full(np.shape(x), np.nan)

    sol = shoot_periodic(NonlinearProblem(f=poisoned_once, T=1.0), guess=(0.1, 0.1), n_steps=2000)
    assert sol.newton.coarse.stop.startswith("NonFinite")
    assert sol.newton.stop == "converged" and sol.newton.error_estimate is None


@pytest.mark.parametrize("c, estimate", [(0.0, 0.0), (2.0**-40, math.inf)], ids=["exact-root", "no-root"])
def test_the_error_estimate_at_a_zero_slope(c, estimate):
    # with f = c, g = -2cT whatever p, and on this power-of-two grid the
    # forward difference rounds to exactly 0: f = 0 is solved exactly, while
    # f = 2^-40 meets newton_tol with no root, which no finite estimate covers
    sol = shoot_periodic(NonlinearProblem(f=lambda t, y, x: np.full(np.shape(x), c), T=1.0), n_steps=2048)
    assert sol.newton.stop == "converged" and sol.newton.error_estimate == estimate
