"""monotone.SplineAt against scipy's CubicSpline, and the forcing built on it
against the CubicSpline form kept in forcing_oracle.py."""

import math

import forcing_oracle
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from refleq import cone, monotone
from refleq.catalog import hyperbolic_lag
from refleq.cli import run
from refleq.cone import fixed_point_operator
from refleq.kernel import ProblemParams
from refleq.linsolve import GridFunction, PeriodicGreenSolver
from refleq.monotone import BracketOrdering, LowerUpperPair, SplineAt, iterate


@settings(max_examples=150)
@given(
    n=st.one_of(st.just(2), st.integers(2, 512)),
    T=st.floats(0.1, 5.0),
    decades=st.floats(-5.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
    uniform=st.booleans(),
    n_quad=st.sampled_from([8, 64, 512]),
)
def test_spline_at_matches_cubic_spline_bit_for_bit(n, T, decades, seed, uniform, n_quad):
    rng = np.random.default_rng(seed)
    grid = np.linspace(-T, T, n + 1)
    if not uniform:  # interior nodes moved by up to a third of the spacing
        grid[1:-1] += rng.uniform(-1, 1, n - 1) * (T / n / 1.5)
    values = 10.0**decades * rng.standard_normal(n + 1)
    nodes = PeriodicGreenSolver(ProblemParams(math.pi / (4 * T), T), grid, n_quad).nodes
    outside = T * np.array([-3.0, -1.0 - 1e-9, 1.0 + 1e-9, 3.0])
    points = np.concatenate([nodes, -nodes, -grid[1:-1], outside, [np.nan]])
    ours = SplineAt(grid, points)(values)
    assert np.array_equal(ours, CubicSpline(grid, values)(points), equal_nan=True)
    assert np.isnan(ours[-1]) and np.all(np.isfinite(ours[:-1]))


# end spacings that make LAPACK interchange rows: a third spacing 10x the
# first two, its mirror at the right end, and a last spacing 10x the rest
PIVOTING_LOG_SPACINGS = ([0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1])


@pytest.mark.parametrize("log_dx", PIVOTING_LOG_SPACINGS)
def test_pivoting_examples_interchange_rows(log_dx):
    grid = np.concatenate([[0.0], np.cumsum(10.0 ** np.array(log_dx, dtype=float))])
    ipiv = SplineAt(grid, grid)._factors[-1]
    assert np.any(ipiv != np.arange(1, len(grid) + 1))


@settings(max_examples=150)
@given(
    log_dx=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=40),
    decades=st.floats(-5.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(log_dx=PIVOTING_LOG_SPACINGS[0], decades=0.0, seed=1)
@example(log_dx=PIVOTING_LOG_SPACINGS[1], decades=0.0, seed=2)
@example(log_dx=PIVOTING_LOG_SPACINGS[2], decades=3.0, seed=3)
def test_spline_at_matches_cubic_spline_on_spacings_across_six_decades(log_dx, decades, seed):
    grid = np.concatenate([[0.0], np.cumsum(10.0 ** np.array(log_dx))])
    values = 10.0**decades * np.random.default_rng(seed).standard_normal(len(grid))
    span = grid[-1]
    points = np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:]), np.linspace(-0.5 * span, 1.5 * span, 97)])
    assert np.array_equal(SplineAt(grid, points)(values), CubicSpline(grid, values)(points))


def test_spline_at_rejects_bad_grids():
    for grid in ([-1.0, 1.0], [-1.0, 0.0, 0.0, 1.0], [-1.0, np.nan, 1.0], [[-1.0, 0.0, 1.0]]):
        with pytest.raises(ValueError):
            SplineAt(grid, [0.0])


def _bracket(T: float, n: int) -> LowerUpperPair:
    lower = GridFunction.from_callable(lambda t: T, T, n)
    upper = GridFunction.from_callable(lambda t: -T, T, n)
    return LowerUpperPair(lower, upper, BracketOrdering.LOWER_ABOVE_UPPER)


def _drawn_points(k: int, seed: int = 20171) -> list:
    """(T, m, lam) in the window where lam*sinh(t - y) meets the one-sided Lipschitz condition."""
    rng = np.random.default_rng(seed)
    points = []
    for uT, um, ul in rng.uniform(size=(k, 3)):
        T = 0.5 + uT
        m = math.pi / (8 * T) * (1.0 + um)
        points.append((T, m, (1.0 - ul) * m / math.cosh(2 * T)))
    return points


@pytest.mark.parametrize("T, m, lam", [(1.0, math.pi / 4, 0.1), *_drawn_points(3)])
def test_iterate_matches_the_cubic_spline_oracle(T, m, lam, monkeypatch):
    def report():
        return iterate(hyperbolic_lag(lam), _bracket(T, 256), m=m)

    ours = report()
    monkeypatch.setattr(monotone, "reflected_forcing", forcing_oracle.at_points)
    theirs = report()
    assert ours.to_dict() == theirs.to_dict()
    for a, b in zip(ours.iterates_lower + ours.iterates_upper, theirs.iterates_lower + theirs.iterates_upper):
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("n", ["2", "16"])
def test_iterate_cli_matches_the_cubic_spline_oracle(n, monkeypatch, capsys):
    argv = ["iterate", "--example", "exa3", "--n", n]
    assert run(argv) == 0
    ours = capsys.readouterr().out
    monkeypatch.setattr(monotone, "reflected_forcing", forcing_oracle.at_points)
    assert run(argv) == 0
    assert capsys.readouterr().out == ours


@pytest.mark.parametrize("n", [2, 64])
def test_fixed_point_operator_matches_the_cubic_spline_oracle(n, monkeypatch):
    x = GridFunction.from_callable(lambda t: np.cos(t) + 0.3 * t, 1.0, n)

    def f(t, y, xx):
        return xx * y + np.sin(t)

    ours = fixed_point_operator(f, 0.5, x, n_quad=256)
    monkeypatch.setattr(cone, "reflected_forcing", forcing_oracle.at_points)
    theirs = fixed_point_operator(f, 0.5, x, n_quad=256)
    assert np.array_equal(ours.values, theirs.values)

