"""integrate_rk4 with the (y, x) system's row signs in its step coefficients.

The library integrates the unsigned derivative of reduce_system with
sign = (-1, 1); tests/rk4_oracle.py is the loop from before, which
integrates the signed rhs.  Both must give the same times and states bit
for bit, and the same exception, class and message, where they fail.  The
oracle checks every step's state for non-finite entries and the library
each block's, so the property also runs on blocks of one to three steps.
"""

import gc
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import rk4_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from refleq import reduce
from refleq.catalog import product_nonlinearity
from refleq.reduce import RK4_BLOCK, NonlinearProblem, integrate_ivp, integrate_rk4, reduce_system


def _nan_beyond(c, m):
    tau = abs(c) / 2

    def f(t, y, x):
        return np.where(np.abs(t) > tau, np.nan, x * y)

    return f


def _raise_beyond(c, m):
    tau = abs(c) / 2

    def f(t, y, x):
        if np.any(np.abs(t) > tau):
            raise RuntimeError(f"no value at t={t} y={y}")
        return x - m * y

    return f


def _nan_then_raises(c, m):
    # NaN beyond tau and an exception beyond 2 tau: the oracle stops at the
    # NaN state, integrate_rk4 runs on to the end of its block and must still
    # report the NaN at tau when f raises before the block ends
    tau = abs(c) / 4

    def f(t, y, x):
        if np.any(np.abs(t) > 2 * tau):
            raise RuntimeError(f"no value at t={t}")
        return np.where(np.abs(t) > tau, np.nan, x - m * y)

    return f


def _overflow(c, m):
    # math.exp raises OverflowError once 1500|t| passes ~709.8, at |t| = 0.47
    return lambda t, y, x: math.exp(1500.0 * abs(t)) * 1e-308 + c * x


#: name -> f(t, y, x) built from two drawn constants (c, m)
FUNCTIONS = {
    "x*y": lambda c, m: product_nonlinearity,
    "c - m*y": lambda c, m: lambda t, y, x: c - m * y,
    "sin(t)*x - y*x": lambda c, m: lambda t, y, x: np.sin(t) * x - y * x,
    "constant": lambda c, m: lambda t, y, x: c,
    "math only": lambda c, m: lambda t, y, x: math.sin(t) * x - c * math.tanh(y) + m * math.cos(x),
    "NaN mid-run": _nan_beyond,
    "raises mid-run": _raise_beyond,
    "NaN, then raises": _nan_then_raises,
    "overflows": _overflow,
    "numpy overflow": lambda c, m: lambda t, y, x: np.exp(50.0 * x * np.abs(t)),
}


def _outcome(integrate, *args):
    try:
        return integrate(*args)
    except Exception as exc:  # noqa: BLE001 - compared by class and message
        return type(exc), str(exc)


#: one drawn comparison: f's family and constants, the interval, the state
DRAWS = dict(
    c=st.floats(-2.0, 2.0),
    m=st.floats(-2.0, 2.0),
    T=st.floats(0.05, 2.5),
    direction=st.sampled_from(["0 -> T", "T -> 0", "-T -> T"]),
    columns=st.sampled_from([None, 1, 2, 3, 5]),
    values=st.lists(st.floats(-1.5, 1.5), min_size=10, max_size=10),
    n_steps=st.integers(1, 40),
)


@pytest.mark.parametrize("name", FUNCTIONS)
@settings(max_examples=40)
@given(**DRAWS)
def test_signed_coefficients_match_the_signed_rhs_oracle(name, c, m, T, direction, columns, values, n_steps):
    _match_the_oracle(name, c, m, T, direction, columns, values, n_steps)


@pytest.mark.parametrize("name", FUNCTIONS)
@settings(max_examples=40)
@given(block_steps=st.integers(1, 3), **DRAWS)
def test_blocks_of_one_to_three_steps_match_the_oracle(name, block_steps, c, m, T, direction, columns, values, n_steps):
    # n_steps <= 40 stays inside one block of RK4_BLOCK values; blocks of 1-3
    # steps put the finiteness check and the stage times on every boundary
    size = 2 * (columns or 1)
    with mock.patch.object(reduce, "RK4_BLOCK", block_steps * size):
        _match_the_oracle(name, c, m, T, direction, columns, values, n_steps)


def _match_the_oracle(name, c, m, T, direction, columns, values, n_steps):
    system = reduce_system(NonlinearProblem(FUNCTIONS[name](c, m), T))
    start, end = {"0 -> T": (0.0, T), "T -> 0": (T, 0.0), "-T -> T": (-T, T)}[direction]
    init = np.reshape(values[:2], (2,)) if columns is None else np.reshape(values[: 2 * columns], (2, columns))
    ours = _outcome(integrate_rk4, system.derivative, start, end, init, n_steps, system.sign)
    oracle = _outcome(rk4_oracle.integrate_rk4, system.rhs, start, end, init, n_steps)
    if isinstance(oracle[0], type):
        assert ours == oracle
    else:
        assert not isinstance(ours[0], type), ours
        assert np.array_equal(ours[0], oracle[0]) and np.array_equal(ours[1], oracle[1])
        assert ours[1].shape == (n_steps + 1,) + init.shape


@pytest.mark.parametrize(
    "name, expected",
    [
        ("NaN mid-run", "NonFinite"),
        ("raises mid-run", "QuadratureFailure"),
        ("NaN, then raises", "NonFinite"),
        ("overflows", "NonFinite"),
        ("numpy overflow", "NonFinite"),
    ],
)
def test_each_failure_case_fails_on_both_sides(name, expected):
    # 0 -> 2 crosses |t| = 0.5, 1 and 0.47 mid-run, where the property may not
    system = reduce_system(NonlinearProblem(FUNCTIONS[name](2.0, 0.5), 2.0))
    ours = _outcome(integrate_rk4, system.derivative, 0.0, 2.0, [[0.3, 0.5], [0.4, 0.9]], 40, system.sign)
    oracle = _outcome(rk4_oracle.integrate_rk4, system.rhs, 0.0, 2.0, [[0.3, 0.5], [0.4, 0.9]], 40)
    assert ours[0].__name__ == expected
    assert ours == oracle


def _peak(call):
    gc.collect()  # free what earlier tests left for the collector, so the peak does not depend on test order
    tracemalloc.start()
    try:
        out = call()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_integrate_ivp_peak_memory_is_its_output():
    # The peak falls in integrate_mirrored's concatenation: the half run's
    # times and (2,) states, 12 bytes per n_step, plus the mirrored ones, 24.
    # The loop before the row signs moved reached 36.01 bytes per n_step at
    # n_steps = 2e5 and 2e4 alike.  Any further array of n_steps/2 rows of the
    # state adds 8 bytes per n_step, 22 % of the peak, at every n_steps.
    n_steps = 20_000
    peak, sol = _peak(lambda: integrate_ivp(NonlinearProblem(lambda t, y, x: 0.5 * x - y, 1.0), 0.1, n_steps))
    assert sol.x_values.shape == (n_steps + 1,)
    assert peak <= 1.1 * 36 * n_steps


def test_integrate_rk4_holds_no_array_of_n_steps_rows_beyond_states():
    # Beyond times and states the loop holds the signed stage times of one
    # segment (at most RK4_WINDOW steps, RK4_BLOCK values per stage), a
    # window's sweep arrays and numpy's ufunc buffers: a constant, which
    # doubling n_steps leaves alone.  Stage times for every step would add
    # 48 bytes per step of a (2,) state.
    system = reduce_system(NonlinearProblem(lambda t, y, x: 0.5 * x - y, 1.0))
    extra = []
    for n_steps in (10_000, 20_000):
        peak, (times, states) = _peak(
            lambda: integrate_rk4(system.derivative, 0.0, 1.0, (0.1, 0.1), n_steps, system.sign)
        )
        extra.append(peak - times.nbytes - states.nbytes)
    assert extra[1] - extra[0] <= 4096
    assert extra[1] <= 12 * RK4_BLOCK * 8
