import itertools
import math

import numpy as np
import pytest
import shooting_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from refleq.catalog import product_nonlinearity
from refleq.errors import NoConvergence, NonFinite, RefleqError
from refleq.reduce import (
    OVER_RELAXATION,
    REFLECTION,
    BoundaryMode,
    Involution,
    NonlinearProblem,
    filter_reflection_solution,
    integrate_ivp,
    integrate_rk4,
    logistic_family_solution,
    reduce_second_order,
    reduce_system,
    shoot_periodic,
    sinh_fixture,
    xi_inverse,
    xi_map,
)


def test_involution_validate():
    REFLECTION.validate(np.linspace(-1, 1, 11))
    bad = Involution(phi=lambda t: t + 1, dphi=lambda t: 1.0)
    with pytest.raises(ValueError):
        bad.validate([0.0, 0.5])
    ident = Involution(phi=lambda t: t, dphi=lambda t: 1.0)
    with pytest.raises(ValueError):
        ident.validate([0.0, 0.5])


def test_xi_roundtrip():
    t, y, x = 0.3, 1.2, -0.4
    assert xi_map(*xi_inverse(t, y, x)) == pytest.approx((t, y, x))


def test_rk4_exact_for_cubic():
    # RK4 integrates polynomial RHS of degree <= 3 in t exactly
    times, states = integrate_rk4(lambda t, y: np.array([3 * t**2]), 0.0, 1.0, [0.0], 10)
    assert states[-1, 0] == pytest.approx(1.0, abs=1e-14)


def test_rk4_blowup_raises():
    with pytest.raises(NonFinite):
        integrate_rk4(lambda t, y: y**2, 0.0, 10.0, [1.0], 50)


def test_batched_rk4_columns_match_single_runs():
    # each column of a (dim, k) state is advanced exactly as its own k = 1 run
    def rhs(t, y):
        return np.stack([t * y[1] - y[0] * y[0] * y[0], -y[0] + 0.5 * y[1]])

    system = reduce_system(NonlinearProblem(f=product_nonlinearity, T=1.0)).rhs
    init = np.array([[0.3, -0.2, 0.0, 1.1], [0.5, 0.7, -0.4, 0.9]])
    for f in (rhs, system):
        times, states = integrate_rk4(f, -1.0, 1.0, init, 400)
        assert states.shape == (401, 2, 4)
        for j in range(init.shape[1]):
            t1, s1 = integrate_rk4(f, -1.0, 1.0, init[:, j], 400)
            assert np.array_equal(times, t1)
            assert np.array_equal(states[:, :, j], s1)


def test_batched_rk4_blowup_in_one_column_raises():
    with pytest.raises(NonFinite):
        integrate_rk4(lambda t, y: y**2, 0.0, 10.0, [[0.5, 1.0]], 50)


def test_second_order_reduction_matches_system():
    # x' = sinh(x(-t)) via the coupled system vs the second-order form
    T, x0 = 0.5, 0.5
    prob = NonlinearProblem(f=lambda t, y, x: math.sinh(y), T=T, mode=BoundaryMode.INITIAL_VALUE, x0=x0)
    sol = integrate_ivp(prob, n_steps=1000)

    red = reduce_second_order(**sinh_fixture())

    def rhs2(t, state):
        x, xp = state
        return np.array([xp, red.rhs(t, x, xp)])

    init = red.initial_state(x0)
    assert init == (x0, math.sinh(x0))
    tf, sf = integrate_rk4(rhs2, 0.0, T, init, 500)
    tb, sb = integrate_rk4(rhs2, 0.0, -T, init, 500)
    x2 = np.concatenate([sb[::-1, 0], sf[1:, 0]])
    assert np.max(np.abs(sol.x_values - x2)) <= 1e-6


def test_ivp_solution_is_genuine():
    prob = NonlinearProblem(f=lambda t, y, x: math.sinh(y), T=0.5, mode=BoundaryMode.INITIAL_VALUE, x0=0.5)
    sol = integrate_ivp(prob, n_steps=1000)
    verdict = filter_reflection_solution(sol, periodic=False)
    assert verdict.genuine
    assert verdict.reflection_defect <= 1e-8


def test_system_rhs_coupling():
    red = reduce_system(NonlinearProblem(f=product_nonlinearity, T=1.0))
    out = red.rhs(0.3, np.array([2.0, 5.0]))
    # x' = f(t,y,x) = x*y, y' = -f(-t,x,y) = -(y*x)
    assert out == pytest.approx([-10.0, 10.0])


def test_system_rhs_batched_and_scalar_only():
    # a (2, k) state is one f call per stage for numpy f, and falls back to
    # one call per entry for an f that rejects arrays
    red = reduce_system(NonlinearProblem(f=product_nonlinearity, T=1.0))
    scalar = reduce_system(NonlinearProblem(f=lambda t, y, x: math.sin(t) + float(x) * float(y), T=1.0))
    state = np.array([[2.0, 0.5], [5.0, -1.0]])
    assert red.rhs(0.3, state).tolist() == [[-10.0, 0.5], [10.0, -0.5]]
    expected = [[-(math.sin(-0.3) + 10.0), -(math.sin(-0.3) - 0.5)], [math.sin(0.3) + 10.0, math.sin(0.3) - 0.5]]
    assert scalar.rhs(0.3, state).tolist() == expected


def test_zw_view_even_odd():
    red = reduce_system(NonlinearProblem(f=product_nonlinearity, T=1.0))
    z, w = red.zw_view([1.0, 2.0], [3.0, 6.0])
    assert np.allclose(z, [2.0, 4.0])
    assert np.allclose(w, [1.0, 2.0])


def test_logistic_family_solves_system_bc_but_not_reflection():
    # closed-form family: meets the system boundary condition for every c,
    # yet only c = 0 is 2T-periodic in the original sense
    times = np.linspace(-1.0, 1.0, 2001)
    sol = logistic_family_solution(1.0, times)
    # system BC (y,x)(-T) = (x,y)(T)
    assert sol.y_values[0] == pytest.approx(sol.x_values[-1], abs=1e-14)
    assert sol.x_values[0] == pytest.approx(sol.y_values[-1], abs=1e-14)
    verdict = filter_reflection_solution(sol)
    assert not verdict.genuine
    expected = (math.e - 1.0) / (math.e + 1.0)
    assert verdict.boundary_defect == pytest.approx(expected, abs=1e-8)
    assert verdict.reflection_defect <= 1e-12


def test_logistic_family_satisfies_ode():
    times = np.linspace(-1.0, 1.0, 101)
    sol = logistic_family_solution(0.7, times)
    # x' = x*y along the family, checked by finite differences
    dx = np.gradient(sol.x_values, times)
    assert np.max(np.abs(dx - sol.x_values * sol.y_values)[2:-2]) <= 1e-3


def test_shoot_periodic_zero_guess():
    prob = NonlinearProblem(f=product_nonlinearity, T=1.0)
    sol = shoot_periodic(prob, guess=(0.0, 0.0))
    assert filter_reflection_solution(sol).genuine
    assert np.max(np.abs(sol.x_values)) <= 1e-12


def test_shoot_periodic_avoids_spurious_family():
    # the plain system defect has a whole curve of zeros; the augmented
    # periodicity residual steers Newton to the genuine x = 0 solution
    prob = NonlinearProblem(f=product_nonlinearity, T=1.0)
    for guess in ((0.1, 0.1), (0.5, -0.2)):
        sol = shoot_periodic(prob, guess=guess)
        verdict = filter_reflection_solution(sol)
        assert verdict.genuine
        assert np.max(np.abs(sol.x_values)) <= 1e-5


def test_shoot_periodic_records_newton():
    prob = NonlinearProblem(f=product_nonlinearity, T=1.0)
    rec = shoot_periodic(prob, guess=(0.1, 0.1), n_steps=400).newton
    assert rec.stop == "converged"
    assert rec.integrations == rec.iterations + 1 + rec.halvings
    assert len(rec.defect_norms) == rec.iterations + 1
    assert rec.defect_norms[-1] <= 1e-10 < rec.defect_norms[0]
    assert len(rec.steps) == len(rec.ranks) == rec.iterations
    assert set(rec.ranks) <= {0, 1, 2}
    assert shoot_periodic(prob, guess=(0.0, 0.0), n_steps=400).newton.iterations == 0


def test_extrapolated_step_converges_at_singular_root():
    # the genuine root of x*y is singular, where plain Newton halves the
    # error per iteration (15 iterations from here); the extrapolated step
    # divides it by ten
    prob = NonlinearProblem(f=product_nonlinearity, T=1.0)
    sol = shoot_periodic(prob, guess=(0.1, 0.1))
    assert sol.newton.iterations <= 5
    assert OVER_RELAXATION in sol.newton.steps
    assert filter_reflection_solution(sol).genuine


def test_singular_root_accuracy_does_not_depend_on_the_guess():
    # a fixed contraction per iteration stops every guess within about a
    # decade of where |F| crosses newton_tol; a step of exactly 2 would land
    # anywhere from there down to rounding (errors 1e-12 to 7e-6 on this grid)
    grid = (-0.4, 0.05, 0.35)
    errs = []
    for guess in itertools.product(grid, grid):
        sol = shoot_periodic(NonlinearProblem(f=product_nonlinearity, T=1.0), guess=guess, n_steps=400)
        assert filter_reflection_solution(sol).genuine
        errs.append(np.max(np.abs(sol.x_values)))
    assert max(errs) <= 1e-5
    assert max(errs) <= 20 * min(errs)


def test_regular_root_takes_full_steps():
    # at a regular root the extrapolated step overshoots, so Newton keeps lam = 1
    for c, m, guess in ((1.0, 0.5, (0.0, 0.0)), (-0.7, 1.8, (0.4, -0.3)), (0.2, 0.9, (-0.5, 0.5))):
        sol = shoot_periodic(NonlinearProblem(f=lambda t, y, x: c - m * y, T=1.0), guess=guess, n_steps=400)
        assert sol.newton.steps and set(sol.newton.steps) == {1.0}
        assert np.max(np.abs(sol.x_values - c / m)) <= 1e-8


def test_damping_failure_reports_its_iteration():
    # x' = x(-t)/4 has the unique periodic solution 0, and Newton's step from
    # (3, 1) heads straight for it; f is NaN once x drops below 1, so every
    # damping trial blows up while the guess and its difference columns
    # (whose x and y stay >= 1 on [-1, 1]) do not
    def f(t, y, x):
        return np.where(x >= 1.0 - 1e-12, 0.25 * y, np.nan)

    with pytest.raises(NoConvergence) as info:
        shoot_periodic(NonlinearProblem(f=f, T=1.0), guess=(3.0, 1.0), n_steps=200)
    assert info.value.iterations == 1
    rec = info.value.newton
    assert rec.stop == "damping failed"
    assert (rec.iterations, rec.halvings, rec.integrations) == (1, 30, 31)


def test_non_finite_difference_column_rejects_the_trial():
    # from (-0.4, 0.3) Newton's first full step on f = x*y overshoots to
    # z = (a + b)/2 ~ 0.64, the largest z it visits (z is conserved along
    # the trajectory).  Poisoning f just beyond that trial leaves its base
    # point finite but not its difference columns at z + s/2, s ~ 1e-7.
    guess, n_steps = (-0.4, 0.3), 400
    accepted = []
    shooting_oracle.shoot_periodic(product_nonlinearity, 1.0, guess, n_steps, accepted=accepted)
    z_trial = float(np.sum(accepted[0])) / 2
    assert z_trial == max(float(np.sum(p)) / 2 for p in accepted)

    def poisoned(t, y, x):
        return np.where((x + y) / 2 <= z_trial + 2e-8, x * y, np.nan)

    # the three-integration loop accepts the trial, then its Jacobian blows up
    with pytest.raises(NonFinite):
        shooting_oracle.shoot_periodic(poisoned, 1.0, guess, n_steps)
    sol = shoot_periodic(NonlinearProblem(f=poisoned, T=1.0), guess=guess, n_steps=n_steps)
    assert sol.newton.halvings >= 1
    assert filter_reflection_solution(sol).genuine
    assert np.max(np.abs(sol.x_values)) <= 1e-5


def test_blowup_in_extrapolated_step_rejects_the_full_step():
    # a blow-up in the extrapolated step counts against the full step too:
    # the pair shares one integration, so it is rejected and lam halves.
    # From (-0.4, 0.3) the first full step on x*y is accepted and overshoots
    # to z = (a + b)/2 ~ 0.64, the extrapolated one to ~1.2 (z is conserved
    # along each trajectory); f is poisoned only between the two.
    guess, n_steps = np.array([-0.4, 0.3]), 400
    plain = shoot_periodic(NonlinearProblem(f=product_nonlinearity, T=1.0), guess=guess, n_steps=n_steps)
    assert plain.newton.steps[0] == 1.0
    accepted = []
    shooting_oracle.shoot_periodic(product_nonlinearity, 1.0, guess, n_steps, accepted=accepted)
    extrapolated = guess + OVER_RELAXATION * (accepted[0] - guess)
    z_full, z_extrapolated = float(np.sum(accepted[0])) / 2, float(np.sum(extrapolated)) / 2
    z_cut = (z_full + z_extrapolated) / 2

    def poisoned(t, y, x):
        return np.where((x + y) / 2 <= z_cut, x * y, np.nan)

    sol = shoot_periodic(NonlinearProblem(f=poisoned, T=1.0), guess=guess, n_steps=n_steps)
    assert sol.newton.steps[0] == 0.5
    assert filter_reflection_solution(sol).genuine
    assert np.max(np.abs(sol.x_values)) <= 1e-5


def _scalar_only(f):
    def g(t, y, x):
        return f(float(t), float(y), float(x))

    return g


@settings(max_examples=10)
@given(
    guess=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    c=st.floats(-1.0, 1.0),
    m=st.floats(0.5, 2.0),
    scalar_only=st.booleans(),
    singular=st.booleans(),
)
# edge guesses; (0.5, -0.5), on the line b = -a < 0, is not one: there the
# oracle itself converges to a point the filter rejects
@example(guess=(0.5, 0.5), c=0.0, m=1.0, scalar_only=False, singular=True)
@example(guess=(-0.5, -0.5), c=0.0, m=1.0, scalar_only=False, singular=True)
@example(guess=(-0.5, 0.5), c=0.0, m=1.0, scalar_only=False, singular=True)
@example(guess=(-0.25, 0.25), c=0.0, m=1.0, scalar_only=False, singular=True)
@example(guess=(0.0, 0.0), c=0.0, m=1.0, scalar_only=False, singular=True)
@example(guess=(5e-324, 0.0), c=0.0, m=1.0, scalar_only=False, singular=True)
def test_batched_shooting_matches_three_integration_oracle(guess, c, m, scalar_only, singular):
    # at a regular root the extrapolated step overshoots and the batched loop
    # does the oracle's arithmetic column by column, so the trajectories are
    # bit-identical, also through the per-entry fallback; at the singular
    # root of x*y it takes its own path, which must stop at the genuine root
    # in no more iterations than the oracle accepts points
    f = product_nonlinearity if singular else (lambda t, y, x: c - m * y)
    if scalar_only:
        f = _scalar_only(f)
    n_steps = 200
    accepted = []
    try:
        times, y, x = shooting_oracle.shoot_periodic(f, 1.0, guess, n_steps, accepted=accepted)
    except RefleqError as exc:
        with pytest.raises(type(exc)):
            shoot_periodic(NonlinearProblem(f=f, T=1.0), guess=guess, n_steps=n_steps)
        return
    sol = shoot_periodic(NonlinearProblem(f=f, T=1.0), guess=guess, n_steps=n_steps)
    if singular:
        assert filter_reflection_solution(sol).genuine
        assert np.max(np.abs(sol.x_values)) <= 1e-5
        assert sol.newton.iterations <= len(accepted)
        return
    assert np.array_equal(sol.times, times)
    assert np.array_equal(sol.y_values, y)
    assert np.array_equal(sol.x_values, x)


def test_shoot_periodic_linear_cross_validation():
    # f(t,y,x) = 1 - m*y turns the shot system into the linear problem
    m, T = 0.5, 1.0
    prob = NonlinearProblem(f=lambda t, y, x: 1.0 - m * y, T=T)
    sol = shoot_periodic(prob, guess=(0.0, 0.0))
    assert np.max(np.abs(sol.x_values - 1.0 / m)) <= 1e-5


def test_filter_requires_symmetric_grid():
    from refleq.reduce import SystemSolution

    sol = SystemSolution(times=np.array([0.0, 0.5, 1.0]), y_values=np.zeros(3), x_values=np.zeros(3))
    with pytest.raises(ValueError):
        filter_reflection_solution(sol)
