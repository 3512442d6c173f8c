import math

import manufactured
import monotone_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog_bounds import lipschitz_bound_hyperbolic
from refleq.catalog import hyperbolic_lag
from refleq.errors import BadWindow, MonotonicityBroken
from refleq.linsolve import GridFunction, PeriodicGreenSolver
from refleq.monotone import (
    MONOTONE_SLACK,
    BracketOrdering,
    LowerUpperPair,
    _require_window,
    check_lower,
    check_upper,
    iterate,
    one_sided_lipschitz_check,
)

T = 1.0
M_STAR = math.pi / 4


def bracket(n=128):
    lower = GridFunction.from_callable(lambda t: T, T, n)
    upper = GridFunction.from_callable(lambda t: -T, T, n)
    return LowerUpperPair(lower, upper, BracketOrdering.LOWER_ABOVE_UPPER)


def test_pair_ordering_enforced():
    lower = GridFunction.from_callable(lambda t: -1.0, T, 8)
    upper = GridFunction.from_callable(lambda t: 1.0, T, 8)
    with pytest.raises(ValueError):
        LowerUpperPair(lower, upper, BracketOrdering.LOWER_ABOVE_UPPER)
    LowerUpperPair(lower, upper, BracketOrdering.LOWER_BELOW_UPPER)


def test_pair_on_two_grids_is_rejected():
    # same n, different T: the values subtract cleanly, so only the grid check catches it
    lower = GridFunction.from_callable(lambda t: 1.0, T, 8)
    upper = GridFunction.from_callable(lambda t: -1.0, 2 * T, 8)
    with pytest.raises(ValueError, match="share the same grid"):
        LowerUpperPair(lower, upper, BracketOrdering.LOWER_ABOVE_UPPER)


def test_declared_lower_below_upper_is_checked():
    lower = GridFunction.from_callable(lambda t: 1.0, T, 8)
    upper = GridFunction.from_callable(lambda t: -1.0, T, 8)
    with pytest.raises(ValueError, match="lower <= upper does not hold"):
        LowerUpperPair(lower, upper, BracketOrdering.LOWER_BELOW_UPPER)


def test_pair_with_nan_is_rejected():
    # NaN compares false, so the ordering check alone would let it through
    upper = GridFunction.from_callable(lambda t: -1.0, T, 8)
    with pytest.raises(ValueError, match="finite"):
        LowerUpperPair(GridFunction(T, [1.0] * 4 + [math.nan] + [1.0] * 4), upper, BracketOrdering.LOWER_ABOVE_UPPER)


def test_constant_endpoints_are_lower_upper():
    f = hyperbolic_lag(0.1)
    lower = GridFunction.from_callable(lambda t: T, T, 64)
    upper = GridFunction.from_callable(lambda t: -T, T, 64)
    assert check_lower(lower, f).valid
    assert check_upper(upper, f).valid


def test_check_lower_boundary_violation():
    # candidate t -> t has derivative 1 >= f = 1 but x(-T) - x(T) = -2 < 0
    cand = GridFunction.from_callable(lambda t: t, T, 16)
    v = check_lower(cand, lambda t, y: 1.0)
    assert not v.valid
    assert any(t == T for t, _ in v.violations)


def test_check_upper_interior_violation():
    cand = GridFunction.from_callable(lambda t: t, T, 16)
    v = check_upper(cand, lambda t, y: 0.0)  # derivative 1 > 0 everywhere
    assert not v.valid
    assert len(v.violations) > 0


@pytest.mark.parametrize("check", [check_lower, check_upper])
def test_a_nan_margin_is_a_violation(check):
    # a NaN margin passes no comparison, so it must be reported, not skipped
    v = check(GridFunction.from_callable(lambda t: 0.0, T, 10), lambda t, y: math.nan)
    assert not v.valid
    assert len(v.violations) == 9
    assert all(math.isnan(margin) for _, margin in v.violations)


def test_lipschitz_bound_value():
    assert lipschitz_bound_hyperbolic(1.0) == pytest.approx(math.pi / (4 * math.cosh(2.0)), abs=1e-15)


def test_lipschitz_holds_below_bound():
    br = bracket(64)
    assert one_sided_lipschitz_check(hyperbolic_lag(0.2), br, M_STAR).holds
    rep = one_sided_lipschitz_check(hyperbolic_lag(lipschitz_bound_hyperbolic(T)), br, M_STAR)
    assert rep.holds
    assert rep.min_margin >= -1e-12


def test_lipschitz_violated_above_bound():
    rep = one_sided_lipschitz_check(hyperbolic_lag(0.25), bracket(64), M_STAR)
    assert not rep.holds
    assert rep.witness is not None


def test_lipschitz_linear_slope_violation():
    # f(t,y) = -2y has slope -2 < -m
    rep = one_sided_lipschitz_check(lambda t, y: -2.0 * y, bracket(16), math.pi / 8)
    assert not rep.holds


def test_lipschitz_constant_f_holds():
    assert one_sided_lipschitz_check(lambda t, y: 3.0, bracket(16), M_STAR).holds


def lipschitz_loop(f, br, m, n_t=41, n_xy=41):
    """Reference: the per-row scan, one f call per sample and one argmin per (t, y)."""
    grid = br.lower.grid()
    idx = np.unique(np.linspace(0, len(grid) - 1, n_t).astype(int))
    lo = np.minimum(br.lower.values, br.upper.values)
    hi = np.maximum(br.lower.values, br.upper.values)
    best = (math.inf, None)
    for i in idx:
        t = float(grid[i])
        xs = np.linspace(lo[i], hi[i], n_xy)
        fx = np.array([f(t, x) for x in xs])
        for j in range(n_xy):
            diff, gap = fx[j:] - fx[j], xs[j:] - xs[j]
            margins = diff + m * gap if m > 0 else -(m * gap) - diff
            k = int(np.argmin(margins))
            if margins[k] < best[0]:
                best = (float(margins[k]), (t, float(xs[j + k]), float(xs[j])))
    return best


@pytest.mark.parametrize("m", [M_STAR, math.pi / 8, -math.pi / 8])
@pytest.mark.parametrize(
    "f",
    [hyperbolic_lag(0.25), lambda t, y: 3.0, lambda t, y: math.sin(t) * y - y**3, lambda t, y: t],
    ids=["sinh", "constant", "scalar_only", "t_only"],
)
def test_lipschitz_matches_per_row_loop(f, m):
    br = LowerUpperPair(
        GridFunction.from_callable(lambda t: T + 0.3 * t * t, T, 32),
        GridFunction.from_callable(lambda t: -T + 0.2 * t, T, 32),
        BracketOrdering.LOWER_ABOVE_UPPER,
    )
    rep = one_sided_lipschitz_check(f, br, m, n_t=17, n_xy=13)
    assert (rep.min_margin, rep.witness) == lipschitz_loop(f, br, m, n_t=17, n_xy=13)


@pytest.mark.parametrize("n_t, n_xy", [(41, 1), (0, 41), (41, 0)])
def test_lipschitz_rejects_a_vacuous_or_empty_sample(n_t, n_xy):
    # n_xy = 1 samples no pair with x != y, and used to report holds with margin 0
    with pytest.raises(ValueError, match="^n_t must be >= 1 and n_xy >= 2$"):
        one_sided_lipschitz_check(lambda t, y: 0.0, bracket(16), M_STAR, n_t=n_t, n_xy=n_xy)


def test_lipschitz_caps_the_sample_before_allocating():
    # 41 * 10**8 margins would be 33 GB
    with pytest.raises(ValueError, match="above the cap"):
        one_sided_lipschitz_check(lambda t, y: 0.0, bracket(16), M_STAR, n_xy=10**4)


def test_lipschitz_window_guard():
    with pytest.raises(BadWindow):
        one_sided_lipschitz_check(lambda t, y: 0.0, bracket(16), 1.0)


@pytest.mark.parametrize("m", [0.0, math.nan])
def test_lipschitz_window_guard_rejects_m_outside_both_windows(m):
    with pytest.raises(BadWindow):
        one_sided_lipschitz_check(lambda t, y: 0.0, bracket(16), m)


@pytest.mark.parametrize("m", [0.0, math.nan, math.inf, -math.inf])
def test_iterate_rejects_m_outside_both_windows_before_building_params(m):
    with pytest.raises(BadWindow):
        iterate(lambda t, y: 0.0, bracket(16), m=m)


def window_oracle(m, T):
    """The window test _require_window made before it asked kernel.sign_class."""
    return m != 0 and abs(m * T) <= math.pi / 4 + 1e-12


def step_ulps(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def window_edges(draw):
    T = draw(st.integers(-20, 20).map(lambda k: math.ldexp(1.0, k)) | st.floats(0.1, 1000.0))
    edge = draw(st.sampled_from([1.0, -1.0])) * math.pi / (4 * T)
    near = draw(st.sampled_from([edge, edge - 1e-12 / T, edge + 1e-12 / T]))
    m = draw(st.sampled_from([0.0, math.inf, -math.inf, math.nan]) | st.integers(-8, 8).map(lambda k: step_ulps(near, k)))
    return m, T


@given(window_edges())
def test_require_window_agrees_with_the_old_test_off_zero(mT):
    # the two differ only where m != 0 but m*T underflows to 0, the k = 0 eigenvalue
    m, T = mT
    if m * T == 0:
        return
    if window_oracle(m, T):
        _require_window(m, T)
    else:
        with pytest.raises(BadWindow):
            _require_window(m, T)


def test_window_tolerance_does_not_grow_with_T():
    # alpha = mT = pi/4 + 5e-10 at T = 1000: the kernel takes both signs there
    T_big, m = 1000.0, 0.0007853981638974483
    wide = LowerUpperPair(
        GridFunction.from_callable(lambda t: T_big, T_big, 16),
        GridFunction.from_callable(lambda t: -T_big, T_big, 16),
        BracketOrdering.LOWER_ABOVE_UPPER,
    )
    with pytest.raises(BadWindow):
        iterate(lambda t, y: 0.0, wide, m=m)
    with pytest.raises(BadWindow):
        one_sided_lipschitz_check(lambda t, y: 0.0, wide, m)


# m*T = pi/4 exactly at T = 0.7 and one ulp above it at T = 3.1
@pytest.mark.parametrize("T_edge", [0.7, 3.1])
@pytest.mark.parametrize("sign", [1, -1])
def test_window_edge_is_accepted(T_edge, sign):
    m = sign * math.pi / (4 * T_edge)
    z = GridFunction.from_callable(lambda t: 0.0, T_edge, 16)
    pair = LowerUpperPair(z, z, BracketOrdering.LOWER_ABOVE_UPPER)
    assert one_sided_lipschitz_check(lambda t, y: 0.0, pair, m).holds
    assert iterate(lambda t, y: 0.0, pair, m=m, n_quad=64, max_iters=2).converged


def test_negative_m_is_exa3_reversed_in_time():
    # t -> -t maps x' + m x(-t) = f(t, x(-t)) to m -> -m, f(t, y) -> -f(-t, y)
    # and swaps lower and upper, so exa3 (lam sinh(t - y), m = pi/4) reversed
    # is lam sinh(t + y) with m = -pi/4 and the bracket -T <= T
    lam, n = 0.1, 256

    def const(v):
        return GridFunction.from_callable(lambda t: v, T, n)

    exa3 = iterate(hyperbolic_lag(lam), bracket(n), m=M_STAR)
    reversed_pair = LowerUpperPair(const(-T), const(T), BracketOrdering.LOWER_BELOW_UPPER)
    rep = iterate(lambda t, y: lam * np.sinh(t + y), reversed_pair, m=-M_STAR)
    assert rep.iterations == exa3.iterations
    assert len(rep.iterates_lower) == len(exa3.iterates_upper)
    for mine, theirs in [(rep.iterates_lower, exa3.iterates_upper), (rep.iterates_upper, exa3.iterates_lower)]:
        for a, b in zip(mine, theirs):
            assert np.max(np.abs(a.values - b.values[::-1])) <= 1e-12


def test_exa3_bracket_with_negative_m_breaks_monotonicity():
    with pytest.raises(MonotonicityBroken, match="descending sequence increased"):
        iterate(hyperbolic_lag(0.1), bracket(256), m=-M_STAR)


@pytest.mark.parametrize("tol", [math.nan, -1e-8])
def test_iterate_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be >= 0"):
        iterate(lambda t, y: 0.0, bracket(16), m=M_STAR, tol=tol)


def test_iterate_rejects_negative_max_iters():
    with pytest.raises(ValueError, match="max_iters must be >= 0"):
        iterate(lambda t, y: 0.0, bracket(16), m=M_STAR, max_iters=-1)


def test_iterate_zero_fixed_point():
    z = GridFunction.from_callable(lambda t: 0.0, T, 32)
    pair = LowerUpperPair(z, z, BracketOrdering.LOWER_ABOVE_UPPER)
    rep = iterate(lambda t, y: 0.0, pair, m=M_STAR, n_quad=256, max_iters=5)
    assert rep.converged
    assert rep.final_gap <= 1e-12


def test_iterate_linear_lands_in_one_step():
    # f(t,y) = -m*y + m: the linear solver reproduces x = 1 immediately
    m = 0.5
    lower = GridFunction.from_callable(lambda t: 2.0, T, 64)
    upper = GridFunction.from_callable(lambda t: 0.0, T, 64)
    pair = LowerUpperPair(lower, upper, BracketOrdering.LOWER_ABOVE_UPPER)
    rep = iterate(lambda t, y: -m * y + m, pair, m=m, n_quad=512, max_iters=5)
    final_lower = rep.iterates_lower[-1].values
    final_upper = rep.iterates_upper[-1].values
    assert np.max(np.abs(final_lower - 1.0)) <= 1e-6
    assert np.max(np.abs(final_upper - 1.0)) <= 1e-6


def test_iterate_monotone_and_bracketed():
    f = hyperbolic_lag(0.1)
    rep = iterate(f, bracket(128), m=M_STAR, n_quad=512, max_iters=25)
    lows = [g.values for g in rep.iterates_lower]
    ups = [g.values for g in rep.iterates_upper]
    for a, b in zip(lows, lows[1:]):
        assert np.all(b <= a + 1e-10)
    for a, b in zip(ups, ups[1:]):
        assert np.all(b >= a - 1e-10)
    for lo, up in zip(lows, ups):
        assert np.all(up <= lo + 1e-10)
        assert np.all(lo <= T + 1e-10)
        assert np.all(up >= -T - 1e-10)
    # gaps decrease geometrically
    g = rep.gap_history
    ratios = [g[i + 1] / g[i] for i in range(3, len(g) - 1)]
    assert max(ratios) < 1.0


def test_iterate_residual_small():
    f = hyperbolic_lag(0.1)
    rep = iterate(f, bracket(256), m=M_STAR, n_quad=1024, max_iters=60)
    assert rep.residual_lower <= 1e-5
    assert rep.residual_upper <= 1e-5
    assert "extremality" in rep.note


def test_iterate_raises_when_the_ascending_sequence_decreases():
    # x' = -1 has no periodic solution: from x = -1 the step gives -1 - 1/m < -1
    with pytest.raises(MonotonicityBroken, match="ascending sequence decreased"):
        iterate(lambda t, y: -1.0 + 0 * y, bracket(16), m=M_STAR)


def test_iterate_raises_when_an_iterate_leaves_the_initial_bracket(monkeypatch):
    # f = 0 keeps every constant fixed; the stub lifts the descending iterate by
    # 0.6 slack per sweep, so each step stays within the slack but the second
    # sweep ends 1.2 slack above the bracket
    z = GridFunction.from_callable(lambda t: 0.0, T, 16)
    pair = LowerUpperPair(z, z, BracketOrdering.LOWER_ABOVE_UPPER)
    solve, calls = PeriodicGreenSolver.solve, []

    def lifted(self, h, lam=0.0):
        calls.append(None)
        return solve(self, h, lam) + (0.6 * MONOTONE_SLACK if len(calls) % 2 else 0.0)  # odd calls: descending

    monkeypatch.setattr(PeriodicGreenSolver, "solve", lifted)
    with pytest.raises(MonotonicityBroken, match="left the initial bracket"):
        iterate(lambda t, y: 0.0 * y, pair, m=M_STAR, n_quad=64, tol=0.0)
    assert len(calls) == 4


def test_iterate_raises_when_the_sequences_cross(monkeypatch):
    # f = 0 keeps every constant fixed; the stub lowers the descending iterate
    # and lifts the ascending one by 0.6 slack, so each sequence moves the way
    # it should but the first sweep leaves ascending 1.2 slack above descending
    z = GridFunction.from_callable(lambda t: 0.0, T, 16)
    pair = LowerUpperPair(z, z, BracketOrdering.LOWER_ABOVE_UPPER)
    solve, calls = PeriodicGreenSolver.solve, []

    def pushed(self, h, lam=0.0):
        calls.append(None)
        return solve(self, h, lam) + (-0.6 if len(calls) % 2 else 0.6) * MONOTONE_SLACK  # odd calls: descending

    monkeypatch.setattr(PeriodicGreenSolver, "solve", pushed)
    with pytest.raises(MonotonicityBroken, match="sequences crossed beyond slack"):
        iterate(lambda t, y: 0.0 * y, pair, m=M_STAR, n_quad=64, tol=0.0)
    assert len(calls) == 2


def test_iterate_report_does_not_alias_the_bracket():
    # the sequences start from copies of the bracket's arrays, so writing into
    # either side leaves the other as it was
    pair = bracket(16)
    lower, upper = pair.lower.values.copy(), pair.upper.values.copy()
    rep = iterate(lambda t, y: -M_STAR * y, pair, m=M_STAR, n_quad=64, max_iters=2)
    first_lower, first_upper = rep.iterates_lower[0].values, rep.iterates_upper[0].values
    assert np.array_equal(first_lower, lower) and np.array_equal(first_upper, upper)
    first_lower += 5.0
    first_upper += 5.0
    assert np.array_equal(pair.lower.values, lower) and np.array_equal(pair.upper.values, upper)
    pair.lower.values -= 7.0
    pair.upper.values -= 7.0
    assert np.array_equal(first_lower, lower + 5.0) and np.array_equal(first_upper, upper + 5.0)


def test_iterate_window_guard():
    with pytest.raises(BadWindow):
        iterate(lambda t, y: 0.0, bracket(16), m=2.0)


def test_report_to_dict():
    z = GridFunction.from_callable(lambda t: 0.0, T, 16)
    pair = LowerUpperPair(z, z, BracketOrdering.LOWER_ABOVE_UPPER)
    rep = iterate(lambda t, y: 0.0, pair, m=M_STAR, n_quad=256, max_iters=2)
    d = rep.to_dict()
    assert d["converged"]
    assert isinstance(d["gap_history"], list)
    assert "iterates_lower" not in d


def test_monotone_limits_converge_at_fourth_order_to_a_non_constant_solution():
    # x* is known exactly and f_y = -m/2 (tests/manufactured.py), so the sweep
    # map contracts the gap by kappa = sup|f_y + m|/m = 1/2 per sweep.  Below
    # n = 32 the centered difference of x*' exceeds the bracket's slack
    # (m/2)*0.1 and the lower/upper checks fail.
    x_star, f = manufactured.reflected_solution(M_STAR)
    errors = []
    for n, bound in ((64, 3.3e-8), (128, 1.7e-9), (256, 9.5e-11)):
        lower = GridFunction.from_callable(lambda t: x_star(t) + 0.1, manufactured.T, n)
        upper = GridFunction.from_callable(lambda t: x_star(t) - 0.1, manufactured.T, n)
        pair = LowerUpperPair(lower, upper, BracketOrdering.LOWER_ABOVE_UPPER)
        assert check_lower(lower, f).valid and check_upper(upper, f).valid
        assert one_sided_lipschitz_check(f, pair, M_STAR).holds
        rep = iterate(f, pair, M_STAR, n_quad=4 * n, max_iters=60, tol=1e-13)
        assert rep.converged and rep.iterations == 40
        gaps = np.array(rep.gap_history)
        ratios = gaps[1:] / gaps[:-1]
        assert np.all(np.abs(ratios[gaps[1:] > 1e-10] - 0.5) <= 1e-4), ratios
        x = x_star(lower.grid())
        error = max(np.max(np.abs(rep.iterates_lower[-1].values - x)), np.max(np.abs(rep.iterates_upper[-1].values - x)))
        assert error <= bound
        errors.append(error)
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(np.abs(orders - 4.0) <= 0.4), (errors, orders)


def _window_problem(T, u_m, u_lam, positive):
    """exa3's lam*sinh(t - y) and bracket for m > 0, its time reversal for m < 0 (see above)."""
    m = math.pi / (8 * T) * (1.0 + u_m)
    lam = (1.0 - u_lam) * m / math.cosh(2 * T)
    hi, lo = (GridFunction.from_callable(lambda t, v=v: v, T, 64) for v in (T, -T))
    if positive:
        return hyperbolic_lag(lam), LowerUpperPair(hi, lo, BracketOrdering.LOWER_ABOVE_UPPER), m
    return (lambda t, y: lam * np.sinh(t + y)), LowerUpperPair(lo, hi, BracketOrdering.LOWER_BELOW_UPPER), -m


def _same_report(ours, theirs):
    # repr tells -0.0 from 0.0, which == does not
    assert repr((ours.to_dict(), ours.step_history)) == repr((theirs.to_dict(), theirs.step_history))
    for a, b in zip(ours.iterates_lower + ours.iterates_upper, theirs.iterates_lower + theirs.iterates_upper, strict=True):
        assert np.array_equal(a.values, b.values)


@settings(max_examples=20, deadline=None)
@given(
    T=st.floats(0.5, 1.5),
    u_m=st.floats(0.0, 1.0),
    u_lam=st.floats(0.0, 1.0),
    positive=st.booleans(),
    max_iters=st.integers(0, 40),
    tol=st.sampled_from([0.0, 1e-12, 1e-8, 1e-4]),
)
def test_iterate_matches_the_sweep_oracle_bit_for_bit(T, u_m, u_lam, positive, max_iters, tol):
    f, pair, m = _window_problem(T, u_m, u_lam, positive)
    args = (f, pair, m, 128, max_iters, tol)
    _same_report(iterate(*args), monotone_oracle.iterate(*args))


def _outcome_and_calls(it, desc_offset, asc_offset, max_iters=10):
    """Run `it` on the zero pair with f = 0 while solve adds desc_offset (odd calls) or
    asc_offset (even calls) slacks; returns (report or exception message, solve calls)."""
    solve, calls = PeriodicGreenSolver.solve, []

    def shifted(self, h, lam=0.0):
        calls.append(None)
        return solve(self, h, lam) + (desc_offset if len(calls) % 2 else asc_offset) * MONOTONE_SLACK

    z = GridFunction.from_callable(lambda t: 0.0, T, 16)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PeriodicGreenSolver, "solve", shifted)
        try:
            outcome = it(lambda t, y: 0.0 * y, LowerUpperPair(z, z, BracketOrdering.LOWER_ABOVE_UPPER), M_STAR, 64, max_iters, 0.0)
        except MonotonicityBroken as exc:
            outcome = str(exc)
    return outcome, len(calls)


@pytest.mark.parametrize(
    "desc_offset, asc_offset, message, n_calls",
    [
        (1.5, 0.0, "descending sequence increased beyond slack", 2),
        (0.0, -1.5, "ascending sequence decreased beyond slack", 2),
        (-0.6, 0.6, "sequences crossed beyond slack", 2),
        (0.6, 0.0, "iterate left the initial bracket", 4),
    ],
)
def test_each_monotonicity_branch_matches_the_sweep_oracle(desc_offset, asc_offset, message, n_calls):
    ours = _outcome_and_calls(iterate, desc_offset, asc_offset)
    assert ours == _outcome_and_calls(monotone_oracle.iterate, desc_offset, asc_offset) == (message, n_calls)


@settings(max_examples=40, deadline=None)
@given(desc_offset=st.floats(-2.0, 2.0), asc_offset=st.floats(-2.0, 2.0), max_iters=st.integers(1, 6))
def test_offset_sweeps_match_the_sweep_oracle(desc_offset, asc_offset, max_iters):
    # the same exception after the same number of solves, or the same report
    ours = _outcome_and_calls(iterate, desc_offset, asc_offset, max_iters)
    theirs = _outcome_and_calls(monotone_oracle.iterate, desc_offset, asc_offset, max_iters)
    if isinstance(ours[0], str) or isinstance(theirs[0], str):
        assert ours == theirs
    else:
        assert ours[1] == theirs[1]
        _same_report(ours[0], theirs[0])


def test_all_zero_differences_give_positive_zero_steps_and_gaps(monkeypatch):
    # descending iterates of -0.0 and ascending ones of +0.0 make every rise and
    # gap -0.0, so max(d.max(), -d.min()) is -0.0 where np.max(np.abs(d)) is 0.0
    solve, calls = PeriodicGreenSolver.solve, []

    def signed_zeros(self, h, lam=0.0):
        calls.append(None)
        return np.full_like(solve(self, h, lam), -0.0 if len(calls) % 2 else 0.0)

    monkeypatch.setattr(PeriodicGreenSolver, "solve", signed_zeros)
    z = GridFunction.from_callable(lambda t: 0.0, T, 16)
    args = (lambda t, y: 0.0 * y, LowerUpperPair(z, z, BracketOrdering.LOWER_ABOVE_UPPER), M_STAR, 64, 3, 0.0)
    ours, theirs = iterate(*args), monotone_oracle.iterate(*args)
    _same_report(ours, theirs)
    assert [math.copysign(1.0, v) for v in ours.gap_history + ours.step_history] == [1.0, 1.0, 1.0]


def test_step_history_is_the_step_that_converged_tests():
    f = hyperbolic_lag(0.1)
    for max_iters, tol in ((60, 1e-8), (5, 1e-8), (60, 0.0), (0, 1e-8)):
        rep = iterate(f, bracket(64), m=M_STAR, n_quad=256, max_iters=max_iters, tol=tol)
        assert len(rep.step_history) == rep.iterations
        assert rep.converged == (bool(rep.step_history) and rep.step_history[-1] <= tol)
        assert all(s > tol for s in rep.step_history[:-1])
        assert "step_history" not in rep.to_dict()


@pytest.mark.parametrize("ordering", ["lower_above_upper", None])
def test_pair_rejects_an_ordering_that_is_not_a_member(ordering):
    lower = GridFunction.from_callable(lambda t: T, T, 16)
    upper = GridFunction.from_callable(lambda t: -T, T, 16)
    with pytest.raises(ValueError, match="^ordering must be a BracketOrdering member"):
        LowerUpperPair(lower, upper, ordering)
