"""integrate_rk4's Jacobi windows against the step-by-step loops they stand in for.

For reduce_system's derivative, integrate_rk4 fills windows of RK4_WINDOW
steps by Jacobi sweeps from its second step on, and goes on step by step
from the last exact state where a sweep raises, turns non-finite or the
window runs out of sweeps (RK4_SWEEPS).  For f built from +, -, *, np.sin
and np.cos, whose numpy kernels round a stack of states as they round one
state, the result must be tests/rk4_oracle.py's trajectory bit for bit, and
where the oracle fails, the same exception with the same message.  f of
np.exp, np.sinh and ** must match it bit for bit where numpy's AVX-512
dispatch is off, and within ROUNDING_BOUND of the trajectory's scale where
it is on.  Any other rhs is called on states of init's shape only.  Below
COLLOCATION_MIN_STEPS, shoot_periodic must be shooting_oracle.shoot_stepwise
run without sweeps.
Windows and sweep caps are also drawn small, so that one window, several
windows, a capped window and the fallback all run on short grids.
"""

import functools
import math
from unittest import mock

import numpy as np
import pytest
import rk4_oracle
import shooting_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from refleq import reduce
from refleq.catalog import product_nonlinearity
from refleq.errors import NonFinite
from refleq.reduce import RK4_SWEEPS, RK4_WINDOW, NonlinearProblem, integrate_rk4, reduce_system, shoot_periodic

#: powers (i, j, k) of t^i y^j x^k in a cubic
MONOMIALS = [(i, j, k) for i in range(4) for j in range(4) for k in range(4) if i + j + k <= 3]


def _cubic(c):
    def f(t, y, x):
        total = 0.0
        for coefficient, powers in zip(c, MONOMIALS):
            term = coefficient
            for factor, power in zip((t, y, x), powers):
                for _ in range(power):
                    term = term * factor
            total = total + term
        return total

    return f


#: name -> f(t, y, x) from twenty drawn constants in [-1, 1]
FAMILIES = {
    "x*y": lambda c: product_nonlinearity,
    "c - m*y": lambda c: lambda t, y, x: c[0] - c[1] * y,
    "cubic": _cubic,
    "sin(x) - y + t": lambda c: lambda t, y, x: np.sin(x) - y + t,
    "cos(c t) x - sin(y)": lambda c: lambda t, y, x: np.cos(c[0] * t) * x - c[1] * np.sin(y),
}


#: f of numpy kernels whose AVX-512 paths round a stack of states otherwise than one state: each applies its
#: kernel to the reflected state y, a reversed view, and keeps the trajectory bounded (the last two conserve
#: cosh x + cosh y and x^4 + y^4 up to the damping term)
ROUNDING_FAMILIES = {
    "exp": lambda c: lambda t, y, x: c[0] * np.exp(y) - c[1] * x + c[2] * t,
    "sinh": lambda c: lambda t, y, x: c[0] * np.sinh(y) - c[1] * x,
    "**": lambda c: lambda t, y, x: c[0] * y**3 - c[1] * x,
}

#: difference from the oracle allowed where numpy rounds a stack otherwise, relative to the trajectory's
#: largest entry: about 9 ulps, where 540 draws on an AVX-512 Xeon differed by at most 3.7e-16
ROUNDING_BOUND = 2e-15


def _avx512_dispatch():
    """Whether numpy dispatches its SIMD kernels to AVX-512 (off under NPY_DISABLE_CPU_FEATURES=X86_V4 ...)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__.get("AVX512_SKX", False)


def _outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared by class and message
        return type(exc), str(exc)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _assert_same(ours, oracle):
    if isinstance(oracle[0], type):
        assert ours == oracle
    else:
        assert not isinstance(ours[0], type), ours
        for a, b in zip(ours, oracle):
            assert a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _constants(window, sweeps):
    """integrate_rk4's window and sweep cap, each None for the library's own."""
    return mock.patch.multiple(reduce, RK4_WINDOW=window or RK4_WINDOW, RK4_SWEEPS=RK4_SWEEPS if sweeps is None else sweeps)


DRAWS = dict(
    name=st.sampled_from(sorted(FAMILIES)),
    c=st.lists(st.floats(-1.0, 1.0), min_size=len(MONOMIALS), max_size=len(MONOMIALS)),
    T=st.floats(0.25, 2.0),
    values=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    window=st.sampled_from([None, 1, 2, 7]),
    sweeps=st.sampled_from([None, 1, 3]),
)


@settings(max_examples=40, deadline=None)
@given(columns=st.sampled_from([None, 1, 3]), backwards=st.booleans(), n_steps=st.integers(2, 2 * RK4_WINDOW + 64), **DRAWS)
def test_integrate_rk4_is_the_step_by_step_oracle_bit_for_bit(name, c, T, values, window, sweeps, columns, backwards, n_steps):
    system = reduce_system(NonlinearProblem(FAMILIES[name](c), T))
    init = np.reshape(values[:2], (2,)) if columns is None else np.reshape(values[: 2 * columns], (2, columns))
    start, end = (T, 0.0) if backwards else (0.0, T)
    with _constants(window, sweeps):
        ours = _outcome(integrate_rk4, system.derivative, start, end, init, n_steps, system.sign)
    _assert_same(ours, _outcome(rk4_oracle.integrate_rk4, system.rhs, start, end, init, n_steps))


@settings(max_examples=10, deadline=None)
@given(half_steps=st.integers(1, reduce.COLLOCATION_MIN_STEPS // 2 - 1), **DRAWS)
def test_shoot_periodic_is_the_stepwise_oracle_without_sweeps(name, c, T, values, window, sweeps, half_steps):
    problem, guess, n_steps = NonlinearProblem(FAMILIES[name](c), T), tuple(values[:2]), 2 * half_steps
    with _constants(window, sweeps):
        ours = _outcome(shoot_periodic, problem, guess, n_steps, max_newton=4)
    with _constants(None, 0):
        oracle = _outcome(shooting_oracle.shoot_stepwise, problem, guess, n_steps, max_newton=4)
    if isinstance(oracle, tuple) or isinstance(ours, tuple):
        assert ours == oracle
    else:
        _assert_same((ours.times, ours.y_values, ours.x_values), (oracle.times, oracle.y_values, oracle.x_values))
        assert ours.newton == oracle.newton


def _windows(call):
    """(call's result or (exception class, message), [(window steps, exact states) of each _sweep_window])."""
    windows = []
    sweep = reduce._sweep_window

    def recorded(rhs, y, stage_times, coefficients):
        exact = sweep(rhs, y, stage_times, coefficients)
        windows.append((y.shape[-1] - 1, exact))
        return exact

    with mock.patch.object(reduce, "_sweep_window", recorded):
        return _outcome(call), windows


def _raises_past(cut):
    def f(t, y, x):
        if np.any(x > cut):
            raise RuntimeError(f"no value at t={t} x={x}")
        return 1.0 + 0.0 * y

    return f


def _overflows_past(cut):
    return lambda t, y, x: np.where(x > cut, x * 1e308 * 10.0, 1.0)


def _math_overflows_past(cut):
    return lambda t, y, x: math.exp(1e3) if x > cut else 1.0 + 0.0 * y


@pytest.mark.parametrize(
    "f, expected",
    [
        (_raises_past(1.7), "QuadratureFailure"),
        (_overflows_past(1.7), "NonFinite"),
        (_math_overflows_past(1.7), "NonFinite"),
    ],
    ids=["raises", "numpy overflow", "OverflowError"],
)
def test_a_failure_first_reached_mid_run_is_the_oracles(f, expected):
    # x' = 1 from x = 0.5 crosses the cut at t = 1.2, step 720, inside a window after the first
    system, n_steps, crossing = reduce_system(NonlinearProblem(f, 2.0)), 1200, 720
    ours, windows = _windows(lambda: integrate_rk4(system.derivative, 0.0, 2.0, [0.5, 0.5], n_steps, system.sign))
    assert ours[0].__name__ == expected
    assert ours == _outcome(rk4_oracle.integrate_rk4, system.rhs, 0.0, 2.0, [0.5, 0.5], n_steps)
    before = (crossing - 1) // RK4_WINDOW
    assert before >= 1 and windows[:before] == [(RK4_WINDOW, RK4_WINDOW)] * before
    assert len(windows) == before + 1 and windows[before][1] < RK4_WINDOW == windows[before][0]


@pytest.mark.parametrize(
    "sweeps, converged",
    [(None, True), (3, False)],
    ids=["every window converges", "the first window runs out of sweeps"],
)
def test_each_window_converges_or_hands_over_to_the_step_by_step_loop(sweeps, converged):
    system, n_steps = reduce_system(NonlinearProblem(lambda t, y, x: np.sin(x) - y + t, 2.0)), 1200
    with _constants(None, sweeps):
        ours, windows = _windows(lambda: integrate_rk4(system.derivative, 0.0, 2.0, [0.3, 0.3], n_steps, system.sign))
    _assert_same(ours, rk4_oracle.integrate_rk4(system.rhs, 0.0, 2.0, [0.3, 0.3], n_steps))
    if converged:
        full, last = divmod(n_steps - 1, RK4_WINDOW)
        assert windows == [(RK4_WINDOW, RK4_WINDOW)] * full + [(last, last)]
    else:
        assert len(windows) == 1 and 3 <= windows[0][1] < RK4_WINDOW


def test_a_constant_trajectory_takes_one_sweep_per_window():
    # the window starts as its first state held, which is already the fixed point: 4 rhs calls confirm it
    calls = []
    system = reduce_system(NonlinearProblem(product_nonlinearity, 1.0))

    @functools.wraps(system.derivative)
    def rhs(t, state):
        calls.append(state.shape)
        return system.derivative(t, state)

    integrate_rk4(rhs, 1.0, 0.0, [0.0, 0.0], 1000, system.sign)
    full, last = divmod(1000 - 1, RK4_WINDOW)
    assert calls == [(2,)] * 4 + [(2, RK4_WINDOW)] * 4 * full + [(2, last)] * 4


def _shapes(rhs):
    """rhs and the list of state shapes it is called with."""
    shapes = []

    def recorded(t, state):
        shapes.append(np.shape(state))
        return rhs(t, state)

    return recorded, shapes


@pytest.mark.parametrize(
    "rhs, init",
    [
        (lambda t, Y: np.array([[0.0, 1.0], [-2.0, -0.3]]) @ Y, np.eye(2)),
        (lambda t, y: np.array([y[1], -y[0]]) / np.linalg.norm(y), np.array([0.6, 0.8])),
        (lambda t, y: np.full(y.shape, y.sum()) - y, np.array([0.1, -0.2, 0.3])),
    ],
    ids=["matrix times the state", "state over its norm", "state sum"],
)
def test_an_rhs_not_marked_elementwise_is_called_one_state_at_a_time(rhs, init):
    # each rhs couples the entries of its argument, so a stack of states along a trailing axis would
    # give another trajectory of the same shape; only reduce_system's derivative is marked elementwise
    recorded, shapes = _shapes(rhs)
    ours = integrate_rk4(recorded, 0.0, 1.5, init, 2 * RK4_WINDOW + 10)
    assert set(shapes) == {init.shape}
    _assert_same(ours, rk4_oracle.integrate_rk4(rhs, 0.0, 1.5, init, 2 * RK4_WINDOW + 10))


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted(ROUNDING_FAMILIES)),
    c=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    T=st.floats(0.25, 2.0),
    values=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
    n_steps=st.integers(2, 3 * RK4_WINDOW),
)
def test_exp_sinh_and_powers_match_the_oracle_to_the_bit_off_avx512(name, c, T, values, n_steps):
    system = reduce_system(NonlinearProblem(ROUNDING_FAMILIES[name](c), T))
    ours = integrate_rk4(system.derivative, T, 0.0, values, n_steps, system.sign)
    oracle = rk4_oracle.integrate_rk4(system.rhs, T, 0.0, values, n_steps)
    if not _avx512_dispatch():
        _assert_same(ours, oracle)
    else:
        assert np.array_equal(_bits(ours[0]), _bits(oracle[0]))
        scale = np.abs(oracle[1]).max()
        assert np.abs(ours[1] - oracle[1]).max() <= ROUNDING_BOUND * scale


def _blows_up_at(state, n_steps, x0, raise_on_non_finite):
    """f with x' = 1 from x(0) = x0 on [0, 1] whose state `state` is the first non-finite one: f is inf past the
    cut halfway between x's grid values at state - 1 and state, which step state - 1 is the first to reach."""
    cut = x0 + (state - 0.5) / n_steps

    def f(t, y, x):
        if raise_on_non_finite and not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise RuntimeError("f is undefined at a non-finite state")
        return np.where(x > cut, np.inf, 1.0)

    return f


@pytest.mark.parametrize("raise_on_non_finite", [False, True], ids=["inf", "raises on inf"])
@pytest.mark.parametrize("marked", [True, False], ids=["marked", "unmarked"])
@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["before", "at", "after"])
def test_a_blow_up_next_to_a_segment_boundary_is_the_oracles(offset, marked, raise_on_non_finite):
    # segments end at states 1 + k RK4_WINDOW, where the states are checked: the second one's end, one state
    # earlier or one later, turns non-finite first, and the failure must be the oracle's at any of them
    n_steps, x0, state = 3 * RK4_WINDOW + 8, 0.25, 1 + 2 * RK4_WINDOW + offset
    system = reduce_system(NonlinearProblem(_blows_up_at(state, n_steps, x0, raise_on_non_finite), 1.0))
    rhs = system.derivative if marked else lambda t, y: system.derivative(t, y)
    ours = _outcome(integrate_rk4, rhs, 0.0, 1.0, [x0, x0], n_steps, system.sign)
    oracle = _outcome(rk4_oracle.integrate_rk4, system.rhs, 0.0, 1.0, [x0, x0], n_steps)
    times = 1.0 / n_steps * np.arange(n_steps + 1)
    assert oracle == (NonFinite, f"state became non-finite at t={times[state]}")
    assert ours == oracle


def test_a_run_past_the_old_block_boundary_is_the_oracles_bit_for_bit():
    # past 2048 steps, RK4_BLOCK values of a (2,) state, the windows go on at 1 + k RK4_WINDOW with no restart
    system = reduce_system(NonlinearProblem(lambda t, y, x: 0.5 * x - y * y + 0.25 * t, 1.5))
    ours = integrate_rk4(system.derivative, 0.0, 1.5, [0.3, 0.3], 2048 + RK4_WINDOW + 17, system.sign)
    _assert_same(ours, rk4_oracle.integrate_rk4(system.rhs, 0.0, 1.5, [0.3, 0.3], 2048 + RK4_WINDOW + 17))
