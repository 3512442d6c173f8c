"""A user function that raises fails every entry point with the library's error.

Every layer calls the user's f or h through linsolve.vectorized, which
passes a RefleqError or MemoryError unchanged, turns an OverflowError into
NonFinite and any other exception into
QuadratureFailure("forcing evaluation failed: ...").  integrate_rk4 applies
the same rule to a raw rhs, which it calls without the wrapper.  f here is
math.log of an argument below zero, so math.log raises "math domain error".
"""

import math
import warnings

import numpy as np
import pytest

from refleq.cone import ConeBounds, check_asymptotic_corollary, check_positive_existence, fixed_point_operator, sweep_annulus
from refleq.errors import NonFinite, QuadratureFailure
from refleq.kernel import ProblemParams
from refleq.linsolve import GridFunction, ReflectionProblem, solve_grid
from refleq.monotone import BracketOrdering, LowerUpperPair, check_lower, check_upper, iterate, one_sided_lipschitz_check
from refleq.reduce import NonlinearProblem, integrate_ivp, integrate_rk4, shoot_periodic

M, T = 0.5, 1.0
DOMAIN_ERROR = "^forcing evaluation failed: math domain error$"


def bad_f(*args):
    """math.log(v - 5) of the last argument v: every sample here lies below 5."""
    return math.log(args[-1] - 5)


def flat(value):
    return GridFunction.from_callable(lambda t: value, T, 10)


def pair():
    return LowerUpperPair(flat(1.0), flat(-1.0), BracketOrdering.LOWER_ABOVE_UPPER)


ENTRY_POINTS = {
    "check_lower": lambda: check_lower(flat(0.0), bad_f),
    "check_upper": lambda: check_upper(flat(0.0), bad_f),
    "one_sided_lipschitz_check": lambda: one_sided_lipschitz_check(bad_f, pair(), M),
    "iterate": lambda: iterate(bad_f, pair(), M),
    "check_positive_existence": lambda: check_positive_existence(bad_f, ConeBounds(M, T, 1, 10)),
    "check_asymptotic_corollary": lambda: check_asymptotic_corollary(bad_f, M, T),
    "sweep_annulus": lambda: sweep_annulus(bad_f, ProblemParams(M, T), sample_density=5),
    "fixed_point_operator": lambda: fixed_point_operator(bad_f, M, flat(0.0)),
    "GridFunction.from_callable": lambda: GridFunction.from_callable(bad_f, T, 10),
    "shoot_periodic": lambda: shoot_periodic(NonlinearProblem(bad_f, T), guess=(0.0, 0.0), n_steps=10),
    "integrate_ivp": lambda: integrate_ivp(NonlinearProblem(bad_f, T), 0.0, 10),
    "integrate_rk4": lambda: integrate_rk4(lambda t, y: [bad_f(t, y[0])], 0.0, T, [0.0], 10),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_raising_user_function_gives_quadrature_failure(entry):
    with pytest.raises(QuadratureFailure, match=DOMAIN_ERROR):
        ENTRY_POINTS[entry]()


def test_an_overflowing_forcing_gives_non_finite():
    with pytest.raises(NonFinite):
        solve_grid(ReflectionProblem(ProblemParams(M, T), lambda t: math.exp(1e3)), n=10)


def test_an_overflowing_raw_rhs_gives_non_finite_with_the_forcing_message():
    with pytest.raises(NonFinite, match="^forcing evaluation overflowed: math range error$"):
        integrate_rk4(lambda t, y: [math.exp(1e3)], 0.0, T, [0.0], 10)


@pytest.mark.parametrize("result", [np.ones(3), np.ones((2, 2))], ids=["(3,)", "(2, 2)"])
def test_a_raw_rhs_result_that_does_not_fit_the_state_gives_quadrature_failure(result):
    # the stage shape check rejects it, which counts as the rhs failing
    with pytest.raises(QuadratureFailure, match="^forcing evaluation failed: "):
        integrate_rk4(lambda t, y: result, 0.0, T, [0.0, 0.0], 4)


def test_a_raw_rhs_result_that_broadcasts_to_a_square_state_gives_quadrature_failure():
    # a (2,) result broadcasts along the columns of a (2, 2) state, so numpy alone would accept it
    with pytest.raises(QuadratureFailure, match=r"^forcing evaluation failed: rhs returned shape \(2,\) for a state of shape \(2, 2\)$"):
        integrate_rk4(lambda t, y: np.array([1.0, 0.0]), 0.0, 1.0, np.zeros((2, 2)), 4)


STATE_OR_CONSTANT = {
    # one RK4 step of size 1 from y = 1: y' = 2y gives 1 + (2 + 2*4 + 2*6 + 14)/6 = 7, y' = 2 gives 3
    "state": (lambda t, y: 2.0 * y, 7.0),
    "float": (lambda t, y: 2.0, 3.0),
    "float64": (lambda t, y: np.float64(2.0), 3.0),
    "0-d": (lambda t, y: np.array(2.0), 3.0),
}


@pytest.mark.parametrize("case", STATE_OR_CONSTANT)
def test_a_raw_rhs_result_of_the_state_shape_or_a_constant_is_integrated(case):
    rhs, expected = STATE_OR_CONSTANT[case]
    assert np.all(integrate_rk4(rhs, 0.0, 1.0, np.ones((2, 2)), 1)[1][-1] == expected)


def test_a_failure_wrapped_inside_a_forcing_is_not_wrapped_again():
    # with no sweep, iterate's first f call is inside its nonlinear residual,
    # whose forcing is itself evaluated through vectorized
    with pytest.raises(QuadratureFailure, match=DOMAIN_ERROR):
        iterate(bad_f, pair(), M, max_iters=0)


def test_a_complex_forcing_gives_quadrature_failure_on_both_paths():
    # native: the array comes back complex; per element: float() rejects a complex
    params = ProblemParams(M, T)
    with pytest.raises(QuadratureFailure, match="complex"):
        solve_grid(ReflectionProblem(params, lambda t: np.exp(1j * t)), n=10)
    with pytest.raises(QuadratureFailure, match="complex"):
        solve_grid(ReflectionProblem(params, lambda t: complex(math.cos(t), 1.0)), n=10)


def test_numpy_complex_scalars_from_a_scalar_only_forcing_give_quadrature_failure():
    # `t >= 0` rejects arrays, so h is called per element and returns np.complex128 for t >= 0
    problem = ReflectionProblem(ProblemParams(M, T), lambda t: np.exp(1j * t) if t >= 0 else 0.0)
    with pytest.raises(QuadratureFailure, match="^forcing evaluation returned complex values$"):
        solve_grid(problem, n=10)


SYSTEM_PATHS = {
    "shoot_periodic": lambda problem: shoot_periodic(problem, guess=(0.0, 0.0), n_steps=10),
    "integrate_ivp": lambda problem: integrate_ivp(problem, 0.5, 10),
    # a raw rhs: integrate_rk4 applies vectorized's rule itself, without the wrapper
    "integrate_rk4": lambda problem: integrate_rk4(lambda t, y: problem.f(t, y, y), 0.0, T, [0.5], 10),
}


@pytest.mark.parametrize("path", SYSTEM_PATHS)
def test_a_complex_nonlinearity_gives_quadrature_failure(path):
    # with the imaginary part dropped, x = 0.5 is a periodic solution of x' = 0.5 - y
    with warnings.catch_warnings(record=True) as caught, pytest.raises(QuadratureFailure, match="complex"):
        warnings.simplefilter("always")
        SYSTEM_PATHS[path](NonlinearProblem(lambda t, y, x: (0.5 + 0.1j) - y, T))
    assert caught == []


def test_a_string_rhs_result_gives_quadrature_failure_in_rk4():
    # a numeric string must not be parsed: y' = "1" is not y' = 1
    with warnings.catch_warnings(record=True) as caught, pytest.raises(QuadratureFailure, match="^forcing evaluation returned non-numeric values$"):
        warnings.simplefilter("always")
        integrate_rk4(lambda t, y: "1", 0.0, 1.0, [0.0], 4)
    assert caught == []
