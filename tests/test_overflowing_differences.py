"""Differences of finite inputs that overflow: each is rejected with ValueError or reported as inf, and none warns.

The suite turns every RuntimeWarning into an error, so a difference that
overflows unsuppressed fails these tests.  The inputs are finite; only
end - start, lower - upper, the defects of a trajectory and the
differences of a candidate or of f overflow.
"""

import math

import numpy as np
import pytest

from public_parameters import counting
from refleq.linsolve import GridFunction
from refleq.monotone import BracketOrdering, LowerUpperPair, check_lower, check_upper, one_sided_lipschitz_check
from refleq.reduce import SystemSolution, filter_reflection_solution, integrate_rk4

BIG = 1e308


@pytest.mark.parametrize("start, end", [(-BIG, BIG), (np.float64(-BIG), np.float64(BIG)), (BIG, -BIG)])
def test_a_run_whose_length_overflows_is_rejected_before_rhs_is_called(start, end):
    # before: times held NaN, and a run of rhs = 0 raised NonFinite at t=inf
    f, calls = counting()
    with pytest.raises(ValueError, match=r"^end - start, the length of the run, must be finite$"):
        integrate_rk4(f, start, end, [1.0], 4)
    assert calls == []


def test_the_longest_runs_with_a_finite_length_are_accepted():
    half = np.finfo(float).max / 2
    times, states = integrate_rk4(lambda t, y: 0 * y, -half, half, [1.0], 4)
    assert times[0] == -half and times[-1] == half and np.all(states == 1.0)


def test_a_reflection_defect_that_overflows_is_inf():
    sol = SystemSolution(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 0.0, BIG]), np.array([-BIG, 0.0, 0.0]))
    verdict = filter_reflection_solution(sol)
    assert (verdict.genuine, verdict.reflection_defect, verdict.worst_t) == (False, math.inf, 1.0)


def test_a_boundary_defect_that_overflows_is_inf():
    sol = SystemSolution(np.array([-1.0, 0.0, 1.0]), np.array([BIG, 0.0, -BIG]), np.array([-BIG, 0.0, BIG]))
    verdict = filter_reflection_solution(sol)
    assert (verdict.genuine, verdict.reflection_defect, verdict.boundary_defect) == (False, 0.0, math.inf)


def test_a_grid_whose_mirror_sum_overflows_is_not_symmetric():
    sol = SystemSolution(np.array([BIG, 1.5 * BIG]), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="^trajectory grid must be symmetric about 0$"):
        filter_reflection_solution(sol)


@pytest.mark.parametrize("ordering, sign", [(BracketOrdering.LOWER_ABOVE_UPPER, 1.0), (BracketOrdering.LOWER_BELOW_UPPER, -1.0)])
def test_a_bracket_whose_gap_overflows_is_rejected(ordering, sign):
    # before: the pair was accepted, one_sided_lipschitz_check reported a NaN margin and iterate warned
    lower, upper = GridFunction(1.0, np.full(5, sign * BIG)), GridFunction(1.0, np.full(5, -sign * BIG))
    with pytest.raises(ValueError, match="^lower - upper must be finite on the grid$"):
        LowerUpperPair(lower, upper, ordering)


def test_a_boundary_term_that_overflows_is_an_inf_margin():
    candidate = GridFunction(1.0, np.array([BIG, 0.0, 0.0, 0.0, -BIG]))
    assert check_lower(candidate, lambda t, y: 0 * y).violations == [(-0.5, -BIG), (0.5, -BIG)]
    assert check_upper(candidate, lambda t, y: 0 * y).violations == [(1.0, -math.inf)]


def test_an_interior_difference_that_overflows_is_an_inf_margin():
    candidate = GridFunction(1.0, np.array([0.0, BIG, 0.0, -BIG, 0.0]))
    assert check_lower(candidate, lambda t, y: 0 * y).violations == [(0.0, -math.inf)]
    assert check_upper(candidate, lambda t, y: 0 * y).valid


@pytest.mark.parametrize("m", [0.5, -0.5])
def test_a_difference_of_f_that_overflows_is_an_inf_margin(m):
    pair = LowerUpperPair(GridFunction(1.0, np.ones(5)), GridFunction(1.0, -np.ones(5)), BracketOrdering.LOWER_ABOVE_UPPER)
    report = one_sided_lipschitz_check(lambda t, y: BIG * np.sign(y), pair, m)
    assert (report.holds, report.min_margin) == ((True, 0.0) if m > 0 else (False, -math.inf))
