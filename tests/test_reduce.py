import itertools
import math

import manufactured
import numpy as np
import pytest
import shooting_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from refleq.catalog import product_nonlinearity
from refleq.errors import NoConvergence, NonFinite, SingularJacobian
from refleq.reduce import (
    OVER_RELAXATION,
    NonlinearProblem,
    SystemSolution,
    filter_reflection_solution,
    integrate_ivp,
    integrate_mirrored,
    integrate_rk4,
    logistic_family_solution,
    reduce_second_order,
    reduce_system,
    shoot_periodic,
    sinh_fixture,
    xi_inverse,
)


# one case per `refleq reduce --mode`; the ids are the BoundaryMode members that
# named the two paths when the mode was a NonlinearProblem field
SOLVER_PATHS = {
    "BoundaryMode.INITIAL_VALUE": lambda problem: integrate_ivp(problem, 0.1),
    "BoundaryMode.PERIODIC": shoot_periodic,
}


@pytest.mark.parametrize("solve", list(SOLVER_PATHS.values()), ids=list(SOLVER_PATHS))
@pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_nonlinear_problem_rejects_bad_T(solve, T):
    with pytest.raises(ValueError, match="T must be finite and strictly positive"):
        solve(NonlinearProblem(f=product_nonlinearity, T=T))


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "ivp"])
def test_the_smallest_normal_T_solves_and_a_subnormal_T_is_rejected(periodic):
    tiny = np.finfo(float).tiny
    problem = NonlinearProblem(f=product_nonlinearity, T=tiny)
    sol = shoot_periodic(problem, n_steps=100) if periodic else integrate_ivp(problem, 0.1, n_steps=100)
    assert filter_reflection_solution(sol, periodic=periodic).genuine
    for T in [np.nextafter(tiny, 0.0), 1e-310, 1e-320, 5e-324]:
        with pytest.raises(ValueError, match="^T must be a normal double, at least 2.2250738585072014e-308, got "):
            NonlinearProblem(f=product_nonlinearity, T=T)


def test_rk4_exact_for_cubic():
    # RK4 integrates polynomial RHS of degree <= 3 in t exactly
    times, states = integrate_rk4(lambda t, y: np.array([3 * t**2]), 0.0, 1.0, [0.0], 10)
    assert states[-1, 0] == pytest.approx(1.0, abs=1e-14)


def test_rk4_blowup_raises():
    with pytest.raises(NonFinite):
        integrate_rk4(lambda t, y: y**2, 0.0, 10.0, [1.0], 50)


def test_overflow_error_in_rhs_raises_non_finite():
    # a scalar rhs blows up by raising OverflowError rather than returning inf
    with pytest.raises(NonFinite, match="overflowed"):
        integrate_rk4(lambda t, y: [math.exp(y[0])], 0.0, 1.0, [800.0], 4)
    with pytest.raises(NonFinite):
        integrate_ivp(NonlinearProblem(f=lambda t, y, x: math.sinh(y), T=1.0), 20.0, n_steps=20)


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


def test_a_state_without_columns_gives_an_empty_trajectory():
    # row signs broadcast to the (2, 0) state and so have no entries; the block length must not divide by that
    for sign in (1.0, [-1.0, 1.0]):
        times, states = integrate_rk4(lambda t, y: -y, 0.0, 1.0, np.zeros((2, 0)), 4, sign=sign)
        assert times.shape == (5,) and states.shape == (5, 2, 0)
    times, states = integrate_mirrored(NonlinearProblem(f=product_nonlinearity, T=1.0), [[], []], 4, False)
    assert np.array_equal(times, [-1.0, -0.5, 0.0, 0.5, 1.0]) and states.shape == (5, 2, 0)


def test_second_order_reduction_matches_system():
    # x' = sinh(x(-t)) via the coupled system vs the second-order form
    T, x0 = 0.5, 0.5
    prob = NonlinearProblem(f=lambda t, y, x: math.sinh(y), T=T)
    sol = integrate_ivp(prob, x0, n_steps=1000)

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
    prob = NonlinearProblem(f=lambda t, y, x: math.sinh(y), T=0.5)
    sol = integrate_ivp(prob, 0.5, n_steps=1000)
    verdict = filter_reflection_solution(sol, periodic=False)
    assert verdict.genuine
    assert verdict.reflection_defect <= 1e-8


@pytest.mark.parametrize("f", [product_nonlinearity, lambda t, y, x: np.sin(t) + y - 0.3 * x * x])
def test_ivp_mirror_matches_backward_integration(f):
    # (y, x)(-t) = (x, y)(t) holds step by step in floating point: RK4 from 0
    # to -T negates every stage of RK4 from 0 to T on the swapped state
    prob = NonlinearProblem(f=f, T=0.7)
    sol = integrate_ivp(prob, 0.4, n_steps=300)
    rhs = reduce_system(prob).rhs
    t_fwd, s_fwd = integrate_rk4(rhs, 0.0, 0.7, (0.4, 0.4), 150)
    t_bwd, s_bwd = integrate_rk4(rhs, 0.0, -0.7, (0.4, 0.4), 150)
    assert np.array_equal(sol.times, np.concatenate([t_bwd[::-1], t_fwd[1:]]))
    assert np.array_equal(np.stack([sol.y_values, sol.x_values], axis=1), np.vstack([s_bwd[::-1], s_fwd[1:]]))


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
    _, z, w = xi_inverse(None, np.array([1.0, 2.0]), np.array([3.0, 6.0]))
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
    # the system alone has the logistic family of periodic solutions; shooting
    # from (y, x)(T) = (p, p) and mirroring only builds reflection solutions
    prob = NonlinearProblem(f=product_nonlinearity, T=1.0)
    for guess in ((0.1, 0.1), (0.5, -0.2)):
        sol = shoot_periodic(prob, guess=guess)
        verdict = filter_reflection_solution(sol)
        assert verdict.genuine
        assert np.max(np.abs(sol.x_values)) <= 1e-5


def test_shoot_periodic_records_newton():
    # for x*y, g(p) = -2p tanh(pT) has a double root at 0, so the slope g'(p)
    # falls with p towards the singular root
    prob = NonlinearProblem(f=product_nonlinearity, T=1.0)
    rec = shoot_periodic(prob, guess=(0.1, 0.1), n_steps=400).newton
    assert rec.stop == "converged"
    assert rec.integrations == rec.iterations + 1 + rec.halvings
    assert len(rec.defect_norms) == rec.iterations + 1
    assert rec.defect_norms[-1] <= 1e-10 < rec.defect_norms[0]
    assert len(rec.steps) == len(rec.slopes) == rec.iterations
    assert all(math.isfinite(s) and s != 0.0 for s in rec.slopes)
    assert abs(rec.slopes[-1]) < abs(rec.slopes[0]) / 10
    assert shoot_periodic(prob, guess=(0.0, 0.0), n_steps=400).newton.iterations == 0


def test_slopes_at_a_regular_root():
    # for c - m*y, g is linear with slope 2 sin(mT), which vanishes only at
    # resonance
    for c, m, guess in ((1.0, 0.5, (0.0, 0.0)), (-0.7, 1.8, (0.4, -0.3)), (0.2, 0.9, (-0.5, 0.5))):
        sol = shoot_periodic(NonlinearProblem(f=lambda t, y, x: c - m * y, T=1.0), guess=guess, n_steps=400)
        assert sol.newton.slopes == pytest.approx([2 * math.sin(m)] * sol.newton.iterations, rel=1e-6)


@pytest.mark.parametrize("guess", [(0.5, -0.5), (-0.1, 0.1), (-0.01, 0.01), (1e-3, -1e-3), (-0.1, 0.1000001)])
def test_anti_diagonal_guesses_reach_the_genuine_root(guess):
    # the two-unknown loops stopped on a spurious trajectory at a = b ~ 175
    # from (0.5, -0.5) and failed to damp from the others; p = (a + b)/2 is
    # the root itself or next to it
    sol = shoot_periodic(NonlinearProblem(f=product_nonlinearity, T=1.0), guess=guess, n_steps=200)
    assert sol.newton.stop == "converged"
    assert filter_reflection_solution(sol).genuine
    assert np.max(np.abs(sol.x_values)) <= (0.0 if guess[0] == -guess[1] else 1e-5)


def test_extrapolated_step_converges_at_singular_root():
    # the genuine root of x*y is singular, where plain Newton halves the
    # error per iteration (15 iterations from here); the extrapolated step
    # divides it by ten.  At n_steps 2000 the coarse stage does that work.
    prob = NonlinearProblem(f=product_nonlinearity, T=1.0)
    sol = shoot_periodic(prob, guess=(0.1, 0.1))
    assert sol.newton.coarse.iterations <= 5
    assert OVER_RELAXATION in sol.newton.coarse.steps
    assert filter_reflection_solution(sol).genuine


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
def test_newton_tol_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match="newton_tol"):
        shoot_periodic(NonlinearProblem(f=product_nonlinearity, T=1.0), guess=(0.1, 0.1), n_steps=20, newton_tol=tol)


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
    # x' = x(-t)/4 has the unique periodic solution 0, so g is linear and
    # Newton's step from p = 1 heads straight for it; f is NaN at t = +-T once
    # x < 1 there, so every damping trial p < 1 blows up at its first RK4 stage
    # while the guess and its difference column p + s do not
    def f(t, y, x):
        return np.where((x >= 1.0) | (np.abs(t) < 1.0), 0.25 * y, np.nan)

    with pytest.raises(NoConvergence) as info:
        shoot_periodic(NonlinearProblem(f=f, T=1.0), guess=(1.0, 1.0), n_steps=200)
    assert info.value.iterations == 1
    rec = info.value.newton
    assert rec.stop == "damping failed"
    assert (rec.iterations, rec.halvings, rec.integrations) == (1, 30, 31)


def test_max_newton_exit_raises_no_convergence():
    # from p = 0.1 the double root p = 0 of x*y takes more than one iteration
    with pytest.raises(NoConvergence) as info:
        shoot_periodic(NonlinearProblem(f=product_nonlinearity, T=1.0), guess=(0.1, 0.1), max_newton=1)
    assert info.value.iterations == 1
    assert info.value.newton.stop == "max_newton"


def test_flat_defect_raises_singular_jacobian():
    # x' = 1 has no periodic solution: g(p) = -2T for every p, so the slope is 0
    with pytest.raises(SingularJacobian):
        shoot_periodic(NonlinearProblem(f=lambda t, y, x: 1.0, T=1.0), guess=(0.3, 0.1), n_steps=20)


def test_a_non_finite_newton_step_raises_singular_jacobian():
    # g = -1e300 over a slope that is rounding noise on 1e300: the step overflows
    with pytest.raises(SingularJacobian, match="^Newton step is non-finite$"):
        shoot_periodic(NonlinearProblem(f=lambda t, y, x: 5e299, T=1.0), guess=(1e300, 1e300), n_steps=20)


def _first_steps(f, p, n_steps):
    """The first full and extrapolated Newton points from p, as shoot_periodic computes them."""
    s = 1e-7 * (1.0 + abs(p))
    _, states = integrate_mirrored(NonlinearProblem(f=f, T=1.0), [[p, p + s], [p, p + s]], n_steps, from_end=True)
    y0, x0 = states[n_steps // 2]
    g = x0 - y0
    delta = -g[0] / ((g[1] - g[0]) / s)
    return p + delta, p + OVER_RELAXATION * delta


def test_non_finite_difference_column_rejects_the_trial():
    # f = x*y conserves z = (x + y)/2 along each trajectory, and shooting
    # starts it at p.  Poisoning f on a band of width ~1e-7 just above the
    # first full step p1 leaves that trial finite but not its difference
    # column p1 + s, so the trial (and the extrapolated one sharing its
    # integration) counts as too large and lam halves
    p0, n_steps = 0.3, 400
    p1, _ = _first_steps(product_nonlinearity, p0, n_steps)
    s1 = 1e-7 * (1.0 + abs(p1))

    def poisoned(t, y, x):
        z = (x + y) / 2
        return np.where((z > p1 + s1 / 2) & (z <= p1 + 2 * s1), np.nan, x * y)

    problem = NonlinearProblem(f=poisoned, T=1.0)
    integrate_mirrored(problem, [p1, p1], n_steps, from_end=True)
    with pytest.raises(NonFinite):
        integrate_mirrored(problem, [p1 + s1, p1 + s1], n_steps, from_end=True)
    plain = shoot_periodic(NonlinearProblem(f=product_nonlinearity, T=1.0), guess=(p0, p0), n_steps=n_steps)
    assert plain.newton.halvings == 0
    sol = shoot_periodic(NonlinearProblem(f=poisoned, T=1.0), guess=(p0, p0), n_steps=n_steps)
    assert sol.newton.steps[0] == 0.5
    assert filter_reflection_solution(sol).genuine
    assert np.max(np.abs(sol.x_values)) <= 1e-5


def test_blowup_in_extrapolated_step_rejects_the_full_step():
    # a blow-up in the extrapolated step counts against the full step too:
    # the pair shares one integration, so it is rejected and lam halves.
    # From p = 3 on x*y the full step is accepted and lands near 0.09, while
    # the extrapolated one overshoots to z = p ~ -2.2 (z = (x + y)/2 is
    # conserved along each trajectory); f is poisoned only between the two
    p0, n_steps = 3.0, 400
    plain = shoot_periodic(NonlinearProblem(f=product_nonlinearity, T=1.0), guess=(p0, p0), n_steps=n_steps)
    assert plain.newton.steps[0] == 1.0
    z_full, z_extrapolated = _first_steps(product_nonlinearity, p0, n_steps)
    assert z_extrapolated < 0.0 < z_full
    z_cut = (z_full + z_extrapolated) / 2

    def poisoned(t, y, x):
        return np.where((x + y) / 2 >= z_cut, x * y, np.nan)

    sol = shoot_periodic(NonlinearProblem(f=poisoned, T=1.0), guess=(p0, p0), n_steps=n_steps)
    assert sol.newton.steps[0] == 0.5
    assert filter_reflection_solution(sol).genuine
    assert np.max(np.abs(sol.x_values)) <= 1e-5


def test_overflow_error_in_extrapolated_step_rejects_the_full_step():
    # as above, with a scalar f that raises OverflowError beyond the cut
    p0, n_steps = 3.0, 400
    z_full, z_extrapolated = _first_steps(product_nonlinearity, p0, n_steps)
    z_cut = (z_full + z_extrapolated) / 2

    def overflowing(t, y, x):
        return x * y if (x + y) / 2 >= z_cut else math.exp(1e3)

    sol = shoot_periodic(NonlinearProblem(f=overflowing, T=1.0), guess=(p0, p0), n_steps=n_steps)
    assert sol.newton.steps[0] == 0.5
    assert filter_reflection_solution(sol).genuine
    assert np.max(np.abs(sol.x_values)) <= 1e-5


def test_exception_on_a_non_finite_state_rejects_the_trial_that_overflowed():
    # as above, with an f that raises RuntimeError on a non-finite argument.
    # Below the cut and away from the trajectories f is 1e308, so every
    # stage argument of the extrapolated step stays finite and only the
    # step's sum k1 + 2 k2 overflows.  integrate_rk4 checks the states once
    # per block, so f sees that infinite state at the next step, inside the
    # block, and raises; the infinite row comes first, so the trial is
    # damped like any non-finite one instead of raising QuadratureFailure
    p0, n_steps = 3.0, 400
    z_full, z_extrapolated = _first_steps(product_nonlinearity, p0, n_steps)
    z_cut = (z_full + z_extrapolated) / 2
    raised = []

    def poisoned(t, y, x):
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raised.append(t)
            raise RuntimeError("f is undefined at a non-finite state")
        near = ((x + y) / 2 >= z_cut) & (np.abs(x) < 1e3) & (np.abs(y) < 1e3)
        return np.where(near, x * y, 1e308)

    sol = shoot_periodic(NonlinearProblem(f=poisoned, T=1.0), guess=(p0, p0), n_steps=n_steps)
    assert raised
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
# edge guesses: the diagonal, the anti-diagonal b = -a (p = 0 is the root
# itself) and the axes
@example(guess=(0.5, 0.5), c=0.0, m=1.0, scalar_only=False, singular=True)
@example(guess=(-0.5, -0.5), c=0.0, m=1.0, scalar_only=False, singular=True)
@example(guess=(-0.5, 0.5), c=0.0, m=1.0, scalar_only=False, singular=True)
@example(guess=(0.5, -0.5), c=0.0, m=1.0, scalar_only=False, singular=True)
@example(guess=(-0.25, 0.25), c=0.0, m=1.0, scalar_only=False, singular=True)
@example(guess=(-0.1, 0.1), c=0.0, m=1.0, scalar_only=False, singular=True)
@example(guess=(0.0, 0.0), c=0.0, m=1.0, scalar_only=False, singular=True)
@example(guess=(5e-324, 0.0), c=0.0, m=1.0, scalar_only=False, singular=True)
@example(guess=(0.0, 0.5), c=0.0, m=1.0, scalar_only=False, singular=True)
@example(guess=(0.0, 0.125), c=0.0, m=0.5, scalar_only=False, singular=False)
def test_batched_shooting_matches_three_integration_oracle(guess, c, m, scalar_only, singular):
    # Scalar shooting from the fixed point reaches the genuine root from every
    # guess in the box, also through the per-entry fallback, and agrees with
    # the two-unknown oracle started from the same trajectory, (y, x) = (p, p)
    # at an end point, p = (a + b)/2.  (From an off-diagonal guess on an axis
    # the oracle's problem is linear, since x*y keeps y or x at 0, and it
    # converges in 1-2 iterations: from (0, 0.5) in 2 against the library's
    # 5 from p = 0.25.)  At a regular root
    # of c - m*y both loops run to a tighter tolerance, so where each stops
    # (up to ~1e-10 from the root at newton_tol) does not enter the
    # comparison.  At the singular root of x*y the library stops in no more
    # iterations than the oracle accepts points.
    f = product_nonlinearity if singular else (lambda t, y, x: c - m * y)
    if scalar_only:
        f = _scalar_only(f)
    n_steps, tol = 200, (1e-10 if singular else 1e-13)
    sol = shoot_periodic(NonlinearProblem(f=f, T=1.0), guess=guess, n_steps=n_steps, newton_tol=tol)
    assert filter_reflection_solution(sol).genuine
    assert np.max(np.abs(sol.x_values - (0.0 if singular else c / m))) <= (1e-5 if singular else 1e-8)
    p = (guess[0] + guess[1]) / 2.0
    accepted = []
    oracle = shooting_oracle.shoot_periodic(f, 1.0, (p, p), n_steps, newton_tol=tol, accepted=accepted)
    if singular:
        assert sol.newton.iterations <= len(accepted)
        return
    for ours, oracle_values in zip((sol.times, sol.y_values, sol.x_values), oracle):
        assert np.max(np.abs(ours - oracle_values)) <= 1e-10


def test_shoot_periodic_linear_cross_validation():
    # f(t,y,x) = 1 - m*y turns the shot system into the linear problem
    m, T = 0.5, 1.0
    prob = NonlinearProblem(f=lambda t, y, x: 1.0 - m * y, T=T)
    sol = shoot_periodic(prob, guess=(0.0, 0.0))
    assert np.max(np.abs(sol.x_values - 1.0 / m)) <= 1e-5


@pytest.mark.parametrize("kinked", [False, True], ids=["smooth", "kinked"])
def test_shooting_converges_at_fourth_order_to_a_non_constant_solution(kinked):
    # x* is known exactly (tests/manufactured.py).  Each half-interval
    # integration runs from T to 0 and stops there, so no RK4 step crosses
    # the |t|^3 kink and the kinked case keeps the order of the smooth one.
    x_star, f = manufactured.periodic_solution(kinked)
    errors = []
    for n_steps in (50, 100, 200):
        sol = shoot_periodic(NonlinearProblem(f=f, T=manufactured.T), guess=(0.5, 0.5), n_steps=n_steps)
        assert sol.newton.stop == "converged"
        assert filter_reflection_solution(sol).genuine
        t = sol.times
        errors.append(max(np.max(np.abs(sol.x_values - x_star(t))), np.max(np.abs(sol.y_values - x_star(-t)))))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(np.abs(orders - 4.0) <= 0.2), (errors, orders)


def test_filter_requires_symmetric_grid():
    from refleq.reduce import SystemSolution

    sol = SystemSolution(times=np.array([0.0, 0.5, 1.0]), y_values=np.zeros(3), x_values=np.zeros(3))
    with pytest.raises(ValueError):
        filter_reflection_solution(sol)


def test_filter_rejects_a_grid_asymmetric_by_more_than_1e_12_T():
    # a relative tolerance such as np.allclose's rtol 1e-5 would let a last node 5e-6 off through
    from refleq.reduce import SystemSolution

    times = np.linspace(-1.0, 1.0, 11)
    times[-1] = 1.0 + 5e-6
    sol = SystemSolution(times=times, y_values=np.zeros(11), x_values=np.zeros(11))
    with pytest.raises(ValueError, match="symmetric"):
        filter_reflection_solution(sol)


@pytest.mark.parametrize("T", [1e-9, 1.0, 7.0, 1e6])
@pytest.mark.parametrize("n_steps", [2, 2000, 2002])
def test_solver_grids_pass_the_symmetry_check(T, n_steps):
    problem = NonlinearProblem(f=lambda t, y, x: 0.0 * x, T=T)
    assert filter_reflection_solution(shoot_periodic(problem, n_steps=n_steps)).genuine
    assert filter_reflection_solution(integrate_ivp(problem, 0.5, n_steps), periodic=False).genuine


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-8])
def test_filter_rejects_bad_tol(tol):
    sol = logistic_family_solution(0.0, np.linspace(-1.0, 1.0, 11))
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        filter_reflection_solution(sol, tol=tol)


def test_filter_rejects_an_empty_trajectory():
    with pytest.raises(ValueError, match="trajectory must hold at least one point"):
        filter_reflection_solution(logistic_family_solution(0.0, []))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SystemSolution(np.linspace(-1, 1, 9), np.zeros(3), np.zeros(9)), r"^y_values must have the shape \(9,\) of times, got \(3,\)$"),
        (lambda: SystemSolution(np.linspace(-1, 1, 9), np.zeros(9), np.zeros((9, 1))), r"^x_values must have the shape \(9,\) of times, got \(9, 1\)$"),
        (lambda: SystemSolution(np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((3, 1))), r"^times must be one-dimensional, got shape \(3, 1\)$"),
        (lambda: logistic_family_solution(1.0, 0.5), r"^times must be one-dimensional, got shape \(\)$"),
    ],
    ids=["short y", "column x", "column times", "scalar times"],
)
def test_a_solution_whose_arrays_are_not_one_grid_is_rejected_at_construction(build, message):
    # accepted before, then numpy's broadcast error or len() of a 0-d array in filter_reflection_solution
    with pytest.raises(ValueError, match=message):
        build()


@settings(max_examples=20, deadline=None)
@given(
    guess=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    c=st.floats(-1.0, 1.0),
    m=st.floats(0.5, 2.0),
    n_steps=st.sampled_from([200, 400]),
)
def test_single_level_newton_is_the_stepwise_oracle(guess, c, m, n_steps):
    # below 800 steps shoot_periodic runs no coarse stage, and its one-grid
    # Newton is the stepwise loop: the same trajectory to the bit and the
    # same integrations, at the regular root of c - m*y and at the double
    # root of x*y, where the extrapolated step wins
    for f in (lambda t, y, x: c - m * y, product_nonlinearity):
        problem = NonlinearProblem(f=f, T=1.0)
        ours = shoot_periodic(problem, guess=guess, n_steps=n_steps)
        oracle = shooting_oracle.shoot_stepwise(problem, guess=guess, n_steps=n_steps)
        assert ours.newton.coarse is None
        assert np.array_equal(ours.y_values, oracle.y_values)
        assert np.array_equal(ours.x_values, oracle.x_values)
        assert ours.newton.integrations == oracle.newton.integrations
        assert filter_reflection_solution(ours).genuine


def test_negative_max_newton_is_rejected():
    with pytest.raises(ValueError, match="max_newton must be >= 0"):
        shoot_periodic(NonlinearProblem(f=product_nonlinearity, T=1.0), guess=(0.1, 0.1), max_newton=-1)


def test_zero_max_newton_raises_no_convergence_off_a_root():
    with pytest.raises(NoConvergence) as info:
        shoot_periodic(NonlinearProblem(f=product_nonlinearity, T=1.0), guess=(0.1, 0.1), n_steps=20, max_newton=0)
    assert info.value.iterations == 0
    assert info.value.newton.stop == "max_newton"


def test_integrate_rk4_caps_its_steps_before_allocating():
    with pytest.raises(ValueError, match="^n_steps=1000000000000000 asks for"):
        integrate_rk4(lambda t, y: -y, 0.0, 1.0, [1.0], 10**15)
