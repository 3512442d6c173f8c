"""collocate_periodic's adaptive degree, against the fixed-degree oracle and on solutions that need more points.

collocation_oracle.collocate_fixed is the collocation as it was: 33 points
whatever the solution needs.  Where 33 points resolve a problem, both must
agree; where they do not, the adaptive degree must resolve it or say that
it could not.  The bounds were fixed before measuring:

- REGULAR_AGREEMENT: the oracle's own error on the linear family at
  omega T = 8 pi is 7.1e-11, and each Newton stops with |g| <= newton_tol
  = 1e-10, so the two are asked to agree a decade above both;
- at the double root of x*y each Newton stops within about a decade of
  where |g| crosses newton_tol, so their distances to it may differ by a
  factor of up to 20, as in test_coarse_shooting;
- RESOLVED_ERROR: a solution whose tail chops at rounding level is as
  accurate as the collocation's rounding allows, far below newton_tol,
  so 1e-9 leaves room for the differentiation matrix's growth in N.
"""

import math

import manufactured
import numpy as np
import pytest
import shooting_oracle
from collocation_oracle import collocate_fixed
from hypothesis import given, settings
from hypothesis import strategies as st
from test_coarse_shooting import ESTIMATE_RATIO

from refleq import reduce
from refleq.catalog import hyperbolic_lag, product_nonlinearity
from refleq.errors import NoConvergence
from refleq.reduce import COLLOCATION_DEGREES, NonlinearProblem, collocate_periodic, filter_reflection_solution, shoot_periodic

REGULAR_AGREEMENT = 1e-9
RESOLVED_ERROR = 1e-9
M = 0.5


def oscillating(k: int, T: float = 1.0):
    """(x*, problem) for x* = cos(wt) + 0.3 sin(wt), w T = k pi, which solves x' + M x(-t) = x*' + M x*(-t) periodically."""
    w = k * math.pi / T

    def x_star(t):
        return np.cos(w * t) + 0.3 * np.sin(w * t)

    def f(t, y, x):
        return -w * np.sin(w * t) + 0.3 * w * np.cos(w * t) + M * x_star(-t) - M * y

    return x_star, NonlinearProblem(f=f, T=T)


def error(sol, x_star):
    t = sol.times
    return max(np.max(np.abs(sol.x_values - x_star(t))), np.max(np.abs(sol.y_values - x_star(-t))))


def regular_problems():
    lag = hyperbolic_lag(0.1)
    cases = [
        ("c-my", NonlinearProblem(f=lambda t, y, x: 0.3 - 1.2 * y, T=1.0), (0.4, -0.1)),
        ("c-my-T2", NonlinearProblem(f=lambda t, y, x: -0.8 - 1.7 * y, T=2.0), (-0.5, 0.5)),
        ("exa3", NonlinearProblem(f=lambda t, y, x: lag(t, y), T=1.0), (0.0, 0.0)),
    ]
    for kinked in (False, True):
        _, f = manufactured.periodic_solution(kinked)
        cases.append(("kinked" if kinked else "smooth", NonlinearProblem(f=f, T=manufactured.T), (0.5, 0.5)))
    for k in (1, 2, 4, 8):
        cases.append((f"linear-{k}pi", oscillating(k)[1], (0.0, 0.0)))
    return cases


REGULAR = regular_problems()


@pytest.mark.parametrize("problem, guess", [case[1:] for case in REGULAR], ids=[case[0] for case in REGULAR])
def test_where_33_points_resolve_the_adaptive_degree_agrees_with_the_fixed_one(problem, guess):
    ours, oracle = collocate_periodic(problem, guess=guess), collocate_fixed(problem, guess=guess)
    assert ours.newton.stop == oracle.newton.stop == "converged"
    assert np.array_equal(ours.times, oracle.times)
    assert np.max(np.abs(ours.x_values - oracle.x_values)) <= REGULAR_AGREEMENT
    assert np.max(np.abs(ours.y_values - oracle.y_values)) <= REGULAR_AGREEMENT


@pytest.mark.parametrize("guess", [(0.5, 0.5), (-0.5, -0.5), (0.3, -0.1), (-0.5, 0.2), (0.1, 0.1)])
def test_at_the_double_root_of_x_y_both_degrees_stop_as_close(guess):
    problem = NonlinearProblem(f=product_nonlinearity, T=1.0)
    ours, oracle = collocate_periodic(problem, guess=guess), collocate_fixed(problem, guess=guess)
    assert filter_reflection_solution(ours).genuine and filter_reflection_solution(oracle).genuine
    err, oracle_err = np.max(np.abs(ours.x_values)), np.max(np.abs(oracle.x_values))
    assert oracle_err / 20 <= err <= 20 * oracle_err
    assert ours.newton.degree == COLLOCATION_DEGREES[0]  # a near-constant solution chops at once


@pytest.mark.parametrize(
    "problem, guess",
    [
        (NonlinearProblem(f=product_nonlinearity, T=1.0), (0.3, 0.3)),
        (NonlinearProblem(f=lambda t, y, x: hyperbolic_lag(0.1)(t, y), T=1.0), (0.0, 0.0)),
        (NonlinearProblem(f=manufactured.periodic_solution()[1], T=1.0), (0.5, 0.5)),
        (NonlinearProblem(f=lambda t, y, x: 0.5 - y**3 + 0.1 * t * x, T=0.5), (0.2, 0.1)),
    ],
    ids=["x-y", "exa3", "smooth", "damped"],
)
def test_on_33_points_alone_newton_takes_the_oracles_steps_bit_for_bit(problem, guess, monkeypatch):
    # the Jacobians are assembled in place, which must not change a bit of any Newton iterate
    monkeypatch.setattr(reduce, "COLLOCATION_DEGREES", (32,))
    oracle = collocate_fixed(problem, guess=guess).newton
    try:
        ours = collocate_periodic(problem, guess=guess).newton
    except NoConvergence as exc:  # where the tail at N = 32 does not chop
        ours = exc.newton
    assert (ours.iterations, ours.halvings) == (oracle.iterations, oracle.halvings)
    assert (ours.defect_norms, ours.slopes, ours.steps) == (oracle.defect_norms, oracle.slopes, oracle.steps)


def test_the_degree_doubles_until_the_tail_chops():
    # cos(20 pi t) has about 70 Chebyshev coefficients above rounding on [0, 1], so N = 128 is the first
    # degree at which standard_chop sees their plateau; each doubling restarts from an unresolved solution,
    # so the defect jumps above newton_tol where N doubles
    x_star, problem = oscillating(20)
    record = collocate_periodic(problem).newton
    assert (record.stop, record.degree) == ("converged", 128)
    assert record.tail <= 1e-13
    norms = np.array(record.defect_norms)
    assert np.any((norms[:-1] <= 1e-10) & (norms[1:] > 1e-10))


def test_past_the_last_degree_the_collocation_says_unresolved():
    x_star, problem = oscillating(160)
    with pytest.raises(NoConvergence, match=r"^unresolved at N = 256, tail \d\.\de-\d\d$") as raised:
        collocate_periodic(problem)
    record = raised.value.newton
    assert (record.stop, record.degree) == ("unresolved", COLLOCATION_DEGREES[-1])
    # shoot_periodic falls back to the one-grid Newton from the guess, with no error estimate
    sol = shoot_periodic(problem, n_steps=2000)
    oracle = shooting_oracle.shoot_stepwise(problem, (0.0, 0.0), 2000, 1e-10, 50)
    assert sol.newton.coarse.stop == "NoConvergence: unresolved" and sol.newton.error_estimate is None
    assert np.array_equal(sol.x_values, oracle.x_values) and np.array_equal(sol.y_values, oracle.y_values)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 40), T=st.floats(0.5, 2.0))
def test_a_periodic_solution_is_resolved_or_reported_unresolved(k, T):
    x_star, problem = oscillating(k, T)
    try:
        sol = collocate_periodic(problem)
    except NoConvergence as exc:
        assert str(exc).startswith(f"unresolved at N = {COLLOCATION_DEGREES[-1]}, tail ")
    else:
        assert sol.newton.stop == "converged"
        assert error(sol, x_star) <= RESOLVED_ERROR
    sol = shoot_periodic(problem, n_steps=2000)
    estimate = sol.newton.error_estimate
    if estimate is None:
        assert sol.newton.coarse.stop.startswith("NoConvergence: unresolved")
    else:
        assert ESTIMATE_RATIO[0] <= estimate / error(sol, x_star) <= ESTIMATE_RATIO[1]
