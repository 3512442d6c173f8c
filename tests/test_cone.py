import hashlib
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cone_oracle
from refleq.catalog import squared_cosine_growth
from refleq.cone import (
    ConeBounds,
    _constraint_systems,
    _sample_inequality,
    check_asymptotic_corollary,
    check_negative_existence,
    check_positive_existence,
    fixed_point_operator,
    sweep_annulus,
)
from refleq.errors import BadWindow, NonFinite, RefleqError, ResonantKernel
from refleq.kernel import RESONANCE_TOL, ProblemParams, kernel_bounds
from refleq.linsolve import GridFunction

P_POS = ProblemParams(0.5, 1.0)
P_NEG = ProblemParams(-0.5, 1.0)


@pytest.fixture(scope="module")
def bounds_pos():
    M, L, _, _ = kernel_bounds(P_POS)
    return M, L


@pytest.fixture(scope="module")
def bounds_neg():
    M, L, _, _ = kernel_bounds(P_NEG)
    return M, L


def piecewise_gain(lo_slope, hi_slope, r=1.0, R=10.0):
    """t-independent f interpolating lo_slope*x below r and hi_slope*x above R."""

    def f(t, x, y):
        x = np.asarray(x, float)
        ax = np.abs(x)
        w = np.clip((ax - r) / (R - r), 0.0, 1.0)
        slope = lo_slope + w * (hi_slope - lo_slope)
        out = slope * x
        return out if out.ndim else float(out)

    return f


@pytest.mark.parametrize("r, R", [(0.1, math.inf), (math.inf, math.inf), (math.nan, 1.0), (0.1, math.nan)])
def test_conebounds_rejects_non_finite_radii(r, R):
    with pytest.raises(ValueError, match="need finite 0 < r < R"):
        ConeBounds(m=0.5, T=1.0, r=r, R=R)


def test_conebounds_invariants(bounds_pos):
    M, L = bounds_pos
    with pytest.raises(ValueError):
        ConeBounds(m=0.5, T=1.0, r=2.0, R=1.0)
    b = ConeBounds(m=0.5, T=1.0, r=1.0, R=10.0)
    assert b.M == pytest.approx(M)
    assert b.L == pytest.approx(L)


def test_gop_relates_pos_neg_bounds(bounds_pos, bounds_neg):
    Mp, Lp = bounds_pos
    Mn, Ln = bounds_neg
    assert Mn == pytest.approx(-Lp, abs=1e-9)
    assert Ln == pytest.approx(-Mp, abs=1e-9)


def test_positive_theorem_satisfiable():
    # slopes chosen against the actual constants: need lo >= M/(2TL^2) - m
    # on the small interval and hi <= 1/(2TM) - m on the large one
    f = piecewise_gain(4.5, -0.25)
    b = ConeBounds(m=0.5, T=1.0, r=1.0, R=10.0)
    rep = check_positive_existence(f, b, sample_density=21)
    assert rep.verdict == "holds_on_samples"
    assert rep.branch == 1
    assert rep.min_margin >= 0


def test_positive_theorem_violated_with_witness():
    b = ConeBounds(m=0.5, T=1.0, r=1.0, R=10.0)
    rep = check_positive_existence(squared_cosine_growth, b, sample_density=11)
    assert rep.verdict == "violated"
    assert rep.violation is not None
    assert rep.min_margin < 0


def test_cor1_mirrored_satisfiable():
    pos = piecewise_gain(4.5, -0.25)
    g = lambda t, x, y: -np.asarray(pos(t, -np.asarray(x, float), -np.asarray(y, float)))
    b = ConeBounds(m=0.5, T=1.0, r=1.0, R=10.0)
    rep = check_negative_existence(g, b, sample_density=21)
    assert rep.verdict == "holds_on_samples"
    assert rep.branch == 1


def test_teo2_negative_m_satisfiable():
    f = piecewise_gain(-5.0, 0.25)
    b = ConeBounds(m=-0.5, T=1.0, r=1.0, R=10.0)
    rep = check_positive_existence(f, b, sample_density=21)
    assert rep.verdict == "holds_on_samples"
    assert rep.branch == 1


def test_cor2_mirrors_teo2():
    # g(t, x, y) = -f(t, -x, -y) maps teo2's positive solutions to negative ones
    f = piecewise_gain(-5.0, 0.25)
    g = lambda t, x, y: -np.asarray(f(t, -np.asarray(x, float), -np.asarray(y, float)))
    b = ConeBounds(m=-0.5, T=1.0, r=1.0, R=10.0)
    teo2 = check_positive_existence(f, b, sample_density=21)
    rep = check_negative_existence(g, b, sample_density=21)
    assert rep.verdict == "holds_on_samples"
    assert rep.branch == 1
    assert rep.min_margin == teo2.min_margin == 0.2761004091026029


#: the written-out theorem for each (cone, m > 0)
ORACLE_VARIANTS = {
    ("positive", True): "positive",
    ("negative", True): "cor1",
    ("positive", False): "teo2",
    ("negative", False): "cor2",
}

_PI4 = math.pi / 4
#: pi/4 and the seven floats below it
LAST_ULPS = [_PI4]
for _ in range(7):
    LAST_ULPS.append(math.nextafter(LAST_ULPS[-1], 0.0))
#: alpha = m*T in (0, pi/4], above the resonance guard at 0
ALPHAS = st.floats(RESONANCE_TOL, _PI4, exclude_min=True) | st.sampled_from(LAST_ULPS)


@settings(max_examples=300)
@given(
    alpha=ALPHAS,
    m_negative=st.booleans(),
    T=st.integers(-3, 3).map(lambda k: 2.0**k),  # a power of two keeps alpha = m*T exact
    r=st.floats(1e-4, 1e2),
    spread=st.floats(1e-8, 1e3),
)
def test_systems_match_the_written_out_oracle(alpha, m_negative, T, r, spread):
    m = -alpha / T if m_negative else alpha / T
    bounds = ConeBounds(m=m, T=T, r=r, R=r * (1.0 + spread))
    if m > 0:
        assert 0 < bounds.L <= bounds.M
    else:
        assert bounds.L <= bounds.M < 0
    for cone in ("positive", "negative"):
        variant = ORACLE_VARIANTS[cone, m > 0]
        assert repr(_constraint_systems(bounds, cone)) == repr(cone_oracle._constraint_systems(bounds, variant))


#: check_negative_existence(lambda t, x, y: 0.0, ConeBounds(M, L, m=-0.5, T=1, r=1, R=2),
#: sample_density=21, variant="teo2") when the theorem was chosen by name
TEO2_REPORT = {
    "theorem": "positive_solution_theorem_m_negative",
    "branch": None,
    "verdict": "violated",
    "min_margin": -29.53298354612579,
    "margins": {
        "cone": 0.1345647391155015,
        "branch1_small_x": -3.9740982261868156,
        "branch1_large_x": -1.307460200247784,
        "branch2_small_x": -0.17593804075024438,
        "branch2_large_x": -29.53298354612579,
    },
    "violation": (-1.0, 7.431367285167223, 2.0, "large_x"),
    "bounds": {"M": -0.415243860856226, "L": -1.542914821466744, "r": 1.0, "R": 2.0, "m": -0.5, "T": 1.0},
    "samples": 46305,
    "notes": ["sampling certificate, not a proof"],
}


def test_variant_window_guards():
    rep = check_positive_existence(lambda t, x, y: 0.0, ConeBounds(m=-0.5, T=1.0, r=1.0, R=2.0), sample_density=21)
    assert asdict(rep) == TEO2_REPORT
    # |m| = pi/(4T) fails the window check, |m| > pi/(4T) already kernel_bounds
    for check in (check_positive_existence, check_negative_existence):
        for m in (_PI4, -_PI4, 1.0, -1.0):
            with pytest.raises(BadWindow):
                check(lambda t, x, y: 0.0, ConeBounds(m=m, T=1.0, r=1.0, R=2.0))


@pytest.mark.parametrize("density", [1, 0, -2])
def test_sample_density_below_two_is_rejected(density):
    bounds = ConeBounds(m=0.5, T=1.0, r=1.0, R=10.0)
    with pytest.raises(ValueError, match="sample_density must be >= 2"):
        check_positive_existence(piecewise_gain(4.5, -0.25), bounds, sample_density=density)


def test_asymptotic_superlinear_positive():
    rep = check_asymptotic_corollary(squared_cosine_growth, 0.5, 1.0, cone="positive")
    assert rep.verdict == "positive_solution"
    assert rep.branch == 2


def test_asymptotic_superlinear_negative_cone():
    rep = check_asymptotic_corollary(squared_cosine_growth, 0.5, 1.0, cone="negative")
    assert rep.verdict == "negative_solution"
    assert rep.branch == 2


def test_asymptotic_sublinear():
    # f = sqrt(|x|): f/x -> inf at 0, -> 0 at infinity (condition 1)
    f = lambda t, x, y: np.sqrt(np.abs(x))
    rep = check_asymptotic_corollary(f, 0.5, 1.0, cone="positive")
    assert rep.verdict == "positive_solution"
    assert rep.branch == 1


def test_asymptotic_linear_inconclusive():
    rep = check_asymptotic_corollary(lambda t, x, y: 2.0 * x, 0.5, 1.0, cone="positive")
    assert rep.verdict == "inconclusive"
    assert rep.branch is None


def test_asymptotic_infinite_ratios_decide_nothing():
    # f = inf*x has f/x = inf at every probe: no finite ratio, so no trend at either end
    rep = check_asymptotic_corollary(lambda t, x, y: math.inf * x, 0.5, 1.0, cone="positive")
    assert rep.verdict == "inconclusive"
    assert rep.branch is None
    assert "limit trend at 0: inconclusive; at infinity: inconclusive" in rep.notes


def test_asymptotic_overflow_at_the_large_probes_is_left_out_of_the_fit():
    # x**60 overflows at x >= 10**5.5; the finite ratios x**59 still rise toward infinity (condition 2)
    with np.errstate(over="ignore"):
        rep = check_asymptotic_corollary(lambda t, x, y: x**60, 0.5, 1.0, cone="positive")
    assert rep.verdict == "positive_solution"
    assert rep.branch == 2
    assert rep.margins["ratio_largest_probe"] == math.inf


def test_asymptotic_sign_violation():
    rep = check_asymptotic_corollary(lambda t, x, y: -x * x, 0.5, 1.0, cone="positive")
    assert rep.verdict == "inconclusive"
    assert rep.violation is not None


def test_asymptotic_rejects_an_unknown_cone():
    with pytest.raises(ValueError, match="cone must be 'positive' or 'negative'"):
        check_asymptotic_corollary(squared_cosine_growth, 0.5, 1.0, cone="mixed")


def test_sweep_rejects_an_unknown_cone():
    with pytest.raises(ValueError, match="unknown cone 'mixed'"):
        sweep_annulus(piecewise_gain(4.5, -0.25), P_POS, cone="mixed")


@pytest.mark.parametrize("branch", [3, 0, "2"])
def test_sweep_rejects_an_unknown_branch(branch):
    with pytest.raises(ValueError, match="^branch must be None, 1 or 2$"):
        sweep_annulus(squared_cosine_growth, P_POS, branch=branch, sample_density=5)


def test_asymptotic_zero_f_is_inconclusive():
    rep = check_asymptotic_corollary(lambda t, x, y: 0.0 * x, 0.5, 1.0)
    assert rep.verdict == "inconclusive"
    assert rep.branch is None
    assert "limit trend at 0: zero; at infinity: zero" in rep.notes


def test_infinite_f_gives_an_infinite_margin_and_no_witness():
    density = 5
    assert _sample_inequality(lambda t, x, y: math.inf + 0 * x, 0.5, 1.0, 0.1, 1.0, ">=", 0.0, density) == (
        math.inf,
        None,
        density**3,
    )


def test_asymptotic_window_guard():
    with pytest.raises(BadWindow):
        check_asymptotic_corollary(squared_cosine_growth, 1.0, 1.0)


@pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
def test_asymptotic_rejects_bad_T(T):
    with pytest.raises(ValueError, match="T must be finite and strictly positive"):
        check_asymptotic_corollary(squared_cosine_growth, 0.5, T)


@pytest.mark.parametrize("m", [-0.5, -0.1])
def test_asymptotic_positive_cone_needs_positive_m(m):
    # the positive theorem holds for 0 < m < pi/(4T) only; the mirrored check takes |m|
    with pytest.raises(BadWindow):
        check_asymptotic_corollary(squared_cosine_growth, m, 1.0, cone="positive")
    assert check_asymptotic_corollary(squared_cosine_growth, m, 1.0, cone="negative").verdict == "negative_solution"


@pytest.mark.parametrize("cone, m", [("positive", 1e-12), ("negative", 1e-12), ("negative", -1e-12)])
def test_asymptotic_rejects_a_resonant_kernel(cone, m):
    # |mT| = 1e-12 is within RESONANCE_TOL of the k = 0 eigenvalue, as for the annulus checks
    with pytest.raises(ResonantKernel):
        check_asymptotic_corollary(squared_cosine_growth, m, 1.0, cone=cone)
    with pytest.raises(ResonantKernel):
        ConeBounds(m, 1.0, 0.1, 10.0)


def test_a_zero_minimum_margin_is_noted():
    # f + m*x is exactly 0 below R, so branch 2 holds with equality on its cone constraint
    bounds = ConeBounds(0.5, 1.0, 1.0, 10.0)
    c_lo = bounds.M / (2 * bounds.T * bounds.L**2)
    report = check_positive_existence(lambda t, x, y: np.where(x < bounds.R, -bounds.m * x, (2 * c_lo - bounds.m) * x), bounds)
    assert (report.verdict, report.branch, report.min_margin) == ("holds_on_samples", 2, 0.0)
    assert "minimum margin is exactly zero (equality boundary)" in report.notes


def test_fixed_point_operator_reproduces_linear_solution():
    # f(t,y,x) = 1 - m*y makes x = 1/m a fixed point of the operator
    m = 0.5
    x = GridFunction.from_callable(lambda t: 1.0 / m, 1.0, 64)
    ax = fixed_point_operator(lambda t, y, xx: 1.0 - m * y, m, x, n_quad=512)
    assert np.max(np.abs(ax.values - x.values)) <= 1e-8


#: sha256 of the values of fixed_point_operator(f, m, x.T, x, n_quad=256) when it took T apart from x
FIXED_POINT_OPERATOR_SHA256 = "73369118894dcea96fb99bc3f5166a48f9fdea2557706755a56c630138e348e8"


def test_fixed_point_operator_works_on_the_interval_of_its_grid_function():
    x = GridFunction.from_callable(lambda t: 1.0 + 0.3 * np.sin(3.0 * t), 0.7, 32)
    ax = fixed_point_operator(lambda t, y, xx: np.cos(t) + 0.1 * y * xx, 0.5, x, n_quad=256)
    assert ax.T == x.T
    assert hashlib.sha256(ax.values.tobytes()).hexdigest() == FIXED_POINT_OPERATOR_SHA256


def test_sweep_finds_synthetic_pair():
    f = piecewise_gain(4.5, -0.25)
    pair, rep = sweep_annulus(f, P_POS, r_values=[0.5, 1.0], R_values=[10.0, 20.0], branch=1, sample_density=11)
    assert pair is not None
    assert rep.verdict == "holds_on_samples"


def test_sweep_reports_best_on_failure():
    pair, rep = sweep_annulus(
        squared_cosine_growth, P_POS, r_values=[0.01, 0.1], R_values=[1.0, 10.0], branch=2, sample_density=11
    )
    assert pair is None
    assert rep is not None
    assert rep.min_margin < 0


def test_sweep_witness_comes_from_the_requested_branch():
    pair, rep = sweep_annulus(
        squared_cosine_growth, P_POS, r_values=[0.01, 0.1], R_values=[1.0, 10.0], branch=2, sample_density=11
    )
    assert pair is None
    t, x, y, label = rep.violation
    bounds = ConeBounds(**{k: rep.bounds[k] for k in ("m", "T", "r", "R")})
    _, _, _, b2 = _constraint_systems(bounds, "positive")
    ((_, _, _, rel, coeff),) = [c for c in b2 if c[0] == label == "large_x"]
    lhs = squared_cosine_growth(t, x, y) + bounds.m * x
    margin = lhs - coeff * x if rel == ">=" else coeff * x - lhs
    assert margin == rep.min_margin == rep.margins["branch2_large_x"]


def test_vectorizable_f_is_called_once_per_inequality():
    calls = []

    def f(t, x, y):
        calls.append(np.shape(t))
        return piecewise_gain(4.5, -0.25)(t, x, y)

    density = 11
    rep = check_positive_existence(f, ConeBounds(m=0.5, T=1.0, r=1.0, R=10.0), sample_density=density)
    assert rep.verdict == "holds_on_samples"
    assert len(calls) == len(rep.margins) == 3  # cone, branch1_small_x, branch1_large_x
    assert rep.samples == len(calls) * density**3
    # a violated check samples both branches and takes its witness from those samples
    calls.clear()
    f = lambda t, x, y: calls.append(np.shape(t)) or squared_cosine_growth(t, x, y)
    rep = check_positive_existence(f, ConeBounds(m=0.5, T=1.0, r=0.1, R=10.0), sample_density=density)
    assert rep.verdict == "violated"
    assert len(calls) == len(rep.margins) == 5
    assert rep.samples == len(calls) * density**3


@pytest.mark.parametrize("branch, calls, samples", [(None, 159, 46305), (1, 137, 27783), (2, 137, 27783)])
def test_sweep_samples_each_distinct_constraint_once(branch, calls, samples):
    # the README sweep: 115 pairs r < R, each with its own cone interval
    # [L*r/M, M*R/L]; small_x depends on r alone (11 values) and large_x on
    # R alone (11 values), once per sampled branch
    seen = []
    f = lambda t, x, y: seen.append(1) or squared_cosine_growth(t, x, y)
    pair, rep = sweep_annulus(f, P_POS, branch=branch)
    assert pair is None
    assert len(seen) == calls
    assert rep.samples == samples


def test_sweep_reports_the_kernel_extrema_and_checks_every_pair():
    # M and L depend on (m, T) alone; every pair has its radii checked
    pair, rep = sweep_annulus(squared_cosine_growth, P_POS)
    assert pair is None
    assert (rep.bounds["M"], rep.bounds["L"]) == tuple(kernel_bounds(P_POS)[:2])
    for r_values, R_values in (
        ([-1.0], [1.0]),
        ([0.1, -1.0], [1.0]),
        ([0.1], [1.0, math.inf]),
        ([math.nan], [1.0]),
        ([math.inf], [1.0]),
        ([0.1], [-1.0]),
        ([0.1], [math.nan]),
    ):
        with pytest.raises(ValueError, match="need finite 0 < r < R"):
            sweep_annulus(squared_cosine_growth, P_POS, r_values, R_values)


@pytest.mark.parametrize("m", [0.5, 2.0, 1e-12])
@pytest.mark.parametrize("r_values, R_values", [([2.0], [1.0]), ([1.0], [1.0]), ([], [1.0]), ([0.1], [])])
def test_sweep_rejects_a_lattice_without_a_pair_before_sampling(m, r_values, R_values):
    # also outside the window (m = 2) and at resonance (m = 1e-12), where one pair would raise
    def f(t, x, y):
        raise AssertionError("sampled")

    with pytest.raises(ValueError, match="need finite 0 < r < R"):
        sweep_annulus(f, ProblemParams(m, 1.0), r_values, R_values)


def _sweep_outcome(sweep, *args, **kwargs):
    try:
        pair, report = sweep(*args, **kwargs)
    except (RefleqError, ValueError) as exc:
        return repr(exc)
    return pair, report and asdict(report)


def _exa2_scalar_only(t, x, y):
    return t**2 * x**2 * (math.cos(y**2) ** 2 + 1.0)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(["gain", "gain_half_nan", "gain_nan_large_x", "exa2", "exa2_scalar_only"]),
    slopes=st.sampled_from([(4.5, -0.25), (-5.0, 0.25)]) | st.tuples(st.floats(-6.0, 6.0), st.floats(-1.0, 1.0)),
    knees=st.tuples(st.floats(0.2, 2.0), st.floats(2.0, 10.0)),
    m=st.sampled_from([0.5, -0.5]) | st.floats(0.1, 0.75).flatmap(lambda a: st.sampled_from([a, -a])),
    cone=st.sampled_from(["positive", "negative"]),
    branch=st.sampled_from([None, 1, 2]),
    r_values=st.lists(st.sampled_from([0.1, 0.5, 1.0, 2.0]), min_size=1, max_size=4),
    R_values=st.lists(st.sampled_from([0.5, 1.0, 5.0, 10.0, 20.0]), min_size=1, max_size=4),
    density=st.integers(2, 5),
)
@example(
    name="gain", slopes=(4.5, -0.25), knees=(1.0, 10.0), m=0.5, cone="negative", branch=None,
    r_values=[0.1, 0.1, 1.0], R_values=[0.5, 0.5, 10.0], density=5,
)
@example(
    name="gain", slopes=(-5.0, 0.25), knees=(1.0, 10.0), m=-0.5, cone="positive", branch=1,
    r_values=[2.0, 0.5, 1.0], R_values=[1.0, 10.0], density=5,
)
def test_sweep_matches_the_unshared_oracle(name, slopes, knees, m, cone, branch, r_values, R_values, density):
    """Sharing constraints between pairs changes no pair, margin, witness or sample count.

    The gain functions are odd in x, so both cones can find a pair, and the
    two sampled slope pairs satisfy branch 1 for m = 0.5 and m = -0.5; the
    examples find a pair after skipping r >= R entries and repeated radii.
    NaN where t < 0 leaves every constraint half sampled; NaN above |x| = 15
    makes the large_x constraints of R = 20 all NaN, so both sweeps raise
    NonFinite there.
    """
    gain = piecewise_gain(*slopes, r=knees[0], R=knees[0] * knees[1])
    f = {
        "gain": gain,
        "gain_half_nan": lambda t, x, y: np.where(t < 0, np.nan, gain(t, x, y)),
        "gain_nan_large_x": lambda t, x, y: np.where(np.abs(x) > 15.0, np.nan, gain(t, x, y)),
        "exa2": squared_cosine_growth,
        "exa2_scalar_only": _exa2_scalar_only,
    }[name]
    args = (f, ProblemParams(m, 1.0), r_values, R_values, cone, branch, density)
    assert _sweep_outcome(sweep_annulus, *args) == _sweep_outcome(cone_oracle.sweep_annulus, *args)


def test_scalar_only_copy_gives_the_same_report(bounds_pos):
    def scalar_only(t, x, y):
        return t**2 * x**2 * (math.cos(y**2) ** 2 + 1.0)

    with pytest.raises(TypeError):
        scalar_only(np.zeros(2), np.zeros(2), np.zeros(2))
    for r, R in ((0.1, 10.0), (1.0, 10.0)):
        bounds = ConeBounds(m=0.5, T=1.0, r=r, R=R)
        native = check_positive_existence(squared_cosine_growth, bounds, sample_density=11)
        scalar = check_positive_existence(scalar_only, bounds, sample_density=11)
        assert asdict(scalar) == asdict(native)


def sample_inequality_loop(f, m, T, xlo, xhi, relation, coeff, density):
    """Reference: one t-slice at a time, one scalar f call per lattice point."""
    xs = np.linspace(xlo, xhi, density)
    best = (math.inf, None)
    for t in np.linspace(-T, T, density):
        vals = np.array([[f(float(t), float(x), float(y)) for y in xs] for x in xs])
        xg = xs[:, None]
        margin = vals + m * xg - coeff * xg if relation == ">=" else coeff * xg - (vals + m * xg)
        k = np.unravel_index(np.argmin(margin), margin.shape)
        if margin[k] < best[0]:
            best = (float(margin[k]), (float(t), float(xs[k[0]]), float(xs[k[1]])))
    return best[0], best[1], density**3


@pytest.mark.parametrize("relation", [">=", "<="])
@pytest.mark.parametrize(
    "f",
    [squared_cosine_growth, piecewise_gain(4.5, -0.25), lambda t, x, y: 2.0, lambda t, x, y: math.sin(t) * x - y],
    ids=["exa2", "gain", "constant", "scalar_only"],
)
def test_lattice_matches_per_slice_loop(f, relation):
    args = (f, 0.5, 1.0, 0.2, 3.0, relation, 0.7, 9)
    assert _sample_inequality(*args) == sample_inequality_loop(*args)


def test_nan_samples_do_not_hide_a_violation(bounds_pos):
    # every t-slice holds a NaN; the negative samples beside them still count
    f = lambda t, x, y: np.where(y > x, np.nan, -10.0 * x)
    rep = check_positive_existence(f, ConeBounds(m=0.5, T=1.0, r=1.0, R=10.0), sample_density=11)
    assert rep.verdict == "violated"
    assert rep.min_margin < 0


def _x_only(t, x, y):
    # reads x alone, so on the lattice axes its result has shape (1, density, 1)
    return 0.3 * x * x - 1.0


def _half_nan(t, x, y):
    return np.where(t < 0, np.nan, x * y - t)


ORACLE_FS = {
    "exa2": squared_cosine_growth,
    "x_only": _x_only,
    "half_nan": _half_nan,
    "scalar_only": lambda t, x, y: math.sin(t) * x - y,
}


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(ORACLE_FS)),
    m=st.floats(-1.0, 1.0),
    T=st.floats(0.1, 3.0),
    xlo=st.floats(-20.0, 20.0),
    width=st.floats(1e-3, 20.0),
    relation=st.sampled_from([">=", "<="]),
    coeff=st.floats(-5.0, 5.0),
    density=st.integers(2, 9),
)
def test_broadcast_lattice_matches_meshgrid_oracle(name, m, T, xlo, width, relation, coeff, density):
    args = (ORACLE_FS[name], m, T, xlo, xlo + width, relation, coeff, density)
    assert _sample_inequality(*args) == cone_oracle.sample_inequality(*args)


def _speckled(threshold):
    """x*y - t, NaN where a fixed hash of the sample exceeds threshold: none at 1, all at -1."""
    return lambda t, x, y: np.where(np.sin(1e3 * (t + 2 * x + 3 * y)) > threshold, np.nan, x * y - t)


@settings(max_examples=100, deadline=None)
@given(
    threshold=st.sampled_from([1.0, 0.9, 0.0, -0.9]) | st.floats(-1.0, 1.0),
    m=st.floats(-1.0, 1.0),
    xlo=st.floats(-5.0, 5.0),
    width=st.floats(1e-3, 5.0),
    relation=st.sampled_from([">=", "<="]),
    density=st.integers(2, 9),
)
@example(threshold=-1.0, m=0.5, xlo=0.2, width=2.8, relation=">=", density=5)
def test_argmin_first_witness_matches_meshgrid_oracle_with_and_without_nan(threshold, m, xlo, width, relation, density):
    # the library masks NaN samples only when the first argmin is a NaN; the
    # oracle always masks.  All-NaN is NonFinite here and (inf, None) there.
    args = (_speckled(threshold), m, 1.0, xlo, xlo + width, relation, 0.7, density)
    theirs = cone_oracle.sample_inequality(*args)
    ts, xs = np.linspace(-1.0, 1.0, density), np.linspace(xlo, xlo + width, density)
    if np.isnan(args[0](ts[:, None, None], xs[None, :, None], xs[None, None, :])).all():
        assert theirs == (math.inf, None, density**3)
        with pytest.raises(NonFinite):
            _sample_inequality(*args)
    else:
        assert _sample_inequality(*args) == theirs


@pytest.mark.parametrize("density", [2, 5])
def test_all_nan_constraint_raises_non_finite(density):
    f = lambda t, x, y: np.full(np.broadcast(t, x, y).shape, np.nan)
    args = (f, 0.5, 1.0, 0.2, 3.0, ">=", 0.7, density)
    assert cone_oracle.sample_inequality(*args) == (math.inf, None, density**3)
    with pytest.raises(NonFinite, match="NaN on every sample"):
        _sample_inequality(*args)


def test_all_nan_branch_is_not_counted_as_satisfied():
    # x**2 overflows on [R, M*R/L], so cos(y**2) is NaN on every sample of large_x
    bounds = ConeBounds(m=0.5, T=1.0, r=1.0, R=1e200)
    with pytest.raises(NonFinite), np.errstate(over="ignore", invalid="ignore"):
        check_positive_existence(squared_cosine_growth, bounds, sample_density=2)


def test_oversized_density_is_rejected_before_f_is_called():
    calls = []
    f = lambda t, x, y: calls.append(1) or 0.0 * x
    with pytest.raises(ValueError, match="sample_density=216 asks for 216\\*\\*3 lattice points"):
        check_positive_existence(f, ConeBounds(m=0.5, T=1.0, r=1.0, R=10.0), sample_density=216)
    assert calls == []
