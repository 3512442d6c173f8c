import math

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

import kernel_bounds_oracle
import kernel_oracle
from kernel_oracle import _branch_masks
from refleq.errors import BadWindow, OutOfDomain, ResonantKernel
from refleq.kernel import (
    Kernel,
    ProblemParams,
    SignClass,
    check_domain,
    check_resonance,
    check_lattice_size,
    classify_sign,
    gbar_separable,
    kernel_bounds,
    sign_class,
)

PAIRS = [(0.3, 1.0), (-0.3, 1.0), (0.7, 1.0), (1.5, 1.0), (0.5, 2.0)]


def kernels():
    return [Kernel(ProblemParams(m, T)) for m, T in PAIRS]


def test_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(0.0, 1.0)
    with pytest.raises(ValueError):
        ProblemParams(1.0, -1.0)
    assert ProblemParams(0.5, 2.0).alpha == 1.0


@settings(max_examples=60)
@given(m=st.floats(allow_nan=True, allow_infinity=True), T=st.floats(allow_nan=True, allow_infinity=True))
def test_params_accept_exactly_finite_nonzero_m_and_positive_T(m, T):
    valid = math.isfinite(m) and math.isfinite(T) and math.isfinite(m * T) and m != 0 and T > 0
    if valid:
        assert ProblemParams(m, T).alpha == m * T
    else:
        with pytest.raises(ValueError):
            ProblemParams(m, T)


def test_resonance_detection():
    assert check_resonance(ProblemParams(math.pi, 1.0)).resonant
    assert check_resonance(ProblemParams(2 * math.pi, 1.0)).k == 2
    assert check_resonance(ProblemParams(-math.pi, 1.0)).k == 1
    assert not check_resonance(ProblemParams(math.pi + 1e-3, 1.0)).resonant
    assert check_resonance(ProblemParams(math.pi + 1e-12, 1.0)).resonant


def test_resonant_kernel_raises():
    k = Kernel(ProblemParams(math.pi, 1.0))
    with pytest.raises(ResonantKernel):
        k.g(0.1, 0.2)
    with pytest.raises(ResonantKernel):
        k.gbar(0.1, 0.2)


def test_out_of_domain():
    k = Kernel(ProblemParams(0.5, 1.0))
    with pytest.raises(OutOfDomain):
        k.g(1.5, 0.0)
    with pytest.raises(OutOfDomain):
        k.gbar(0.0, -1.2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_out_of_domain(bad):
    # NaN fails every branch mask, so gbar would hand back np.empty memory
    k = Kernel(ProblemParams(0.5, 1.0))
    with pytest.raises(OutOfDomain):
        k.gbar(bad, 0.0)
    with pytest.raises(OutOfDomain):
        k.gbar(np.array([0.0, 0.5]), np.array([bad, 0.1]))
    with pytest.raises(OutOfDomain):
        k.g(0.0, bad)


def test_g_point_value():
    # G(0,0) = cos(mT)/(2 m sin(mT)) at m=1, T=1
    k = Kernel(ProblemParams(1.0, 1.0))
    assert k.g(0.0, 0.0) == pytest.approx(math.cos(1.0) / (2 * math.sin(1.0)), abs=1e-15)


def test_g_symmetries_on_grid():
    for k in kernels():
        T = k.params.T
        u = np.linspace(-T, T, 101)
        tt, ss = np.meshgrid(u, u, indexing="ij")
        vals = k.g(tt, ss)
        assert np.max(np.abs(vals - k.g(ss, tt))) <= 1e-12
        assert np.max(np.abs(vals - k.g(-tt, -ss))) <= 1e-12


def test_g_second_derivative_identity():
    # d^2G/dt^2 + m^2 G = 0 off the diagonal, finite differences
    k = Kernel(ProblemParams(1.0, 1.0))
    eps = 1e-5
    for t, s in [(0.2, 0.6), (-0.4, 0.1), (0.5, -0.5 + 1e-3)]:
        d2 = (k.g(t + eps, s) - 2 * k.g(t, s) + k.g(t - eps, s)) / eps**2
        assert abs(d2 + k.params.m**2 * k.g(t, s)) <= 1e-5


def test_g_t_derivative_jump():
    # dG/dt jumps by 1 across s = t
    k = Kernel(ProblemParams(1.0, 1.0))
    t = 0.3
    eps = 1e-6

    def dgdt(tv, s):
        return (k.g(tv + eps, s) - k.g(tv - eps, s)) / (2 * eps)

    jump = dgdt(t, t - 1e-4) - dgdt(t, t + 1e-4)
    assert jump == pytest.approx(1.0, abs=1e-4)


def test_gbar_factored_agrees():
    # off the jump diagonal the branches cover the square, and on each one
    # 2*sin(alpha)*Gbar is the product A(t/T)*B(s/T) the solver sums
    for k in kernels():
        T, a = k.params.T, k.params.alpha
        u = np.linspace(-T, T, 151)
        tt, ss = np.meshgrid(u, u, indexing="ij")
        z, y = tt / T, ss / T
        direct = k.gbar(tt, ss)
        diag, masks = _branch_masks(z, y)
        assert np.all(diag | np.logical_or.reduce(masks))
        outer, mid, (below, above, middle) = gbar_separable(a, z, y)
        for c, (A, B) in zip(masks, [(mid, middle), (outer, above), (outer, below), (mid, middle)]):
            gap = np.abs(direct[c] - A[c] * B[c])
            assert np.max(gap) <= 1e-12


#: scaled coordinates t/T that sit on branch boundaries: the origin with both signs, the edges, the midpoints
EDGES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5])


def _same_bytes(got, want):
    return type(got) is type(want) and np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    magnitude=st.floats(min_value=1e-6, max_value=3 * math.pi),
    negative=st.booleans(),
    z=st.lists(st.one_of(EDGES, st.floats(min_value=-1.0, max_value=1.0)), min_size=1, max_size=10),
    y=st.lists(st.one_of(EDGES, st.floats(min_value=-1.0, max_value=1.0)), min_size=1, max_size=10),
)
@example(magnitude=math.pi / 4, negative=False, z=[-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], y=[-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
@example(magnitude=2.5, negative=True, z=[-0.0, 1.0], y=[0.0, -1.0])
def test_gbar_separable_matches_the_factor_table_byte_for_byte(magnitude, negative, z, y):
    # the arrays PeriodicGreenSolver built from the four (A, B) pairs, bit for bit
    alpha = -magnitude if negative else magnitude
    assume(not check_resonance(ProblemParams(alpha, 1.0)).resonant)
    z, y = np.array(z), np.array(y)
    got, want = gbar_separable(alpha, z, y), kernel_oracle.solver_factors(alpha, z, y)
    assert all(_same_bytes(g, w) for g, w in zip(got, want))


@settings(max_examples=80, deadline=None)
@given(
    magnitude=st.floats(min_value=1e-6, max_value=3 * math.pi),
    negative=st.booleans(),
    T=st.floats(min_value=0.2, max_value=4.0),
    layout=st.sampled_from(["scalar", "column x row", "meshgrid"]),
    scaled=st.lists(st.one_of(EDGES, st.floats(min_value=-1.0, max_value=1.0)), min_size=1, max_size=10),
)
@example(magnitude=math.pi / 4, negative=False, T=1.0, layout="meshgrid", scaled=[-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
# (1 - 0.9) + 0.9 is 1 but (1 + 0.9) - 0.9 is not, so the anti-diagonal at t = 0.9T tells the two cases apart
@example(magnitude=1.5, negative=False, T=1.0, layout="column x row", scaled=[-0.9, 0.9])
@example(magnitude=math.pi / 4, negative=True, T=2.0, layout="column x row", scaled=[-1.0, -0.0, 0.0, 1.0])
@example(magnitude=2.5, negative=True, T=1.0, layout="scalar", scaled=[-1.0, -0.0, 0.3, 1.0])
def test_gbar_matches_the_four_branch_oracle_byte_for_byte(magnitude, negative, T, layout, scaled):
    # t runs over the drawn points and s over them and their mirror images,
    # so the jump diagonal s = t and the anti-diagonal s = -t are both sampled
    params = ProblemParams((-magnitude if negative else magnitude) / T, T)
    assume(not check_resonance(params).resonant)
    k = Kernel(params)
    t = np.array(scaled) * T
    s = np.concatenate([t, -t])
    if layout == "scalar":
        pairs = [(float(a), float(b)) for a in t for b in s]
    elif layout == "column x row":
        pairs = [(t[:, None], s)]
    else:
        pairs = [np.meshgrid(t, s, indexing="ij")]
    for a, b in pairs:
        assert _same_bytes(k.gbar(a, b), kernel_oracle.gbar(k, a, b))
    for points in [t, *map(float, t)]:
        got, want = k.gbar_diagonal_limits(points), kernel_oracle.gbar_diagonal_limits(k, points)
        assert all(map(_same_bytes, got, want))


def test_gbar_v_prime_symmetry():
    # Gbar(t,s) = Gbar(-s,-t), diagonal included
    for k in kernels():
        T = k.params.T
        u = np.linspace(-T, T, 101)
        tt, ss = np.meshgrid(u, u, indexing="ij")
        assert np.max(np.abs(k.gbar(tt, ss) - k.gbar(-ss, -tt))) <= 1e-12


def test_gbar_jump_is_one():
    for k in kernels():
        t = np.linspace(-k.params.T, k.params.T, 41)
        left, right = k.gbar_diagonal_limits(t)
        assert np.max(np.abs((left - right) - 1.0)) <= 1e-10


def test_gbar_diagonal_convention_side():
    # m > 0 stores the limit from above, m < 0 from below
    kp = Kernel(ProblemParams(0.5, 1.0))
    kn = Kernel(ProblemParams(-0.5, 1.0))
    t = 0.3
    lp, rp = kp.gbar_diagonal_limits(t)
    ln, rn = kn.gbar_diagonal_limits(t)
    assert kp.gbar(t, t) == pytest.approx(rp, abs=1e-15)
    assert kn.gbar(t, t) == pytest.approx(ln, abs=1e-15)


def test_gbar_continuous_across_antidiagonal():
    k = Kernel(ProblemParams(0.7, 1.0))
    for t in (0.25, -0.6):
        v0 = k.gbar(t, -t)
        assert abs(k.gbar(t, -t + 1e-9) - v0) <= 1e-8
        assert abs(k.gbar(t, -t - 1e-9) - v0) <= 1e-8


@settings(max_examples=50, deadline=None)
@given(
    m=st.floats(min_value=-3.0, max_value=3.0).filter(lambda x: abs(x) > 0.05 and abs(abs(x) - math.pi) > 0.05),
    t=st.floats(min_value=-1.0, max_value=1.0),
    s=st.floats(min_value=-1.0, max_value=1.0),
)
def test_gbar_symmetry_property(m, t, s):
    k = Kernel(ProblemParams(m, 1.0))
    assert k.gbar(t, s) == pytest.approx(k.gbar(-s, -t), abs=1e-12)


def test_sign_positive_window():
    for alpha in np.linspace(0.05, math.pi / 4 - 0.02, 8):
        rep = classify_sign(ProblemParams(alpha, 1.0))
        assert rep.classification is SignClass.STRICTLY_POSITIVE
        rep_neg = classify_sign(ProblemParams(-alpha, 1.0))
        assert rep_neg.classification is SignClass.STRICTLY_NEGATIVE


def test_sign_boundary_alpha():
    rep = classify_sign(ProblemParams(math.pi / 4, 1.0))
    assert rep.classification is SignClass.NONNEG_VANISHING_ON_P
    assert (1.0, -1.0) in [tuple(p) for p in rep.vanishing_set]
    rep = classify_sign(ProblemParams(-math.pi / 4, 1.0))
    assert rep.classification is SignClass.NONPOS_VANISHING_ON_P
    assert (-1.0, 1.0) in [tuple(p) for p in rep.vanishing_set]


def test_sign_mixed_and_resonant():
    assert classify_sign(ProblemParams(2.0, 1.0)).classification is SignClass.MIXED_SIGN
    assert classify_sign(ProblemParams(math.pi, 1.0)).classification is SignClass.RESONANT


@pytest.mark.parametrize(
    "alpha, expected",
    [
        (0.3, SignClass.STRICTLY_POSITIVE),
        (-0.3, SignClass.STRICTLY_NEGATIVE),
        (math.pi / 4, SignClass.NONNEG_VANISHING_ON_P),
        (-math.pi / 4, SignClass.NONPOS_VANISHING_ON_P),
        (2.0, SignClass.MIXED_SIGN),
        (0.0, SignClass.MIXED_SIGN),
        (math.nan, SignClass.MIXED_SIGN),
        (math.inf, SignClass.MIXED_SIGN),
        (-math.inf, SignClass.MIXED_SIGN),
    ],
)
def test_sign_class_representatives(alpha, expected):
    assert sign_class(alpha) is expected


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(min_value=-4.0, max_value=4.0), T=st.floats(min_value=0.2, max_value=4.0))
@example(alpha=math.pi / 4, T=1.0)
@example(alpha=-math.pi / 4, T=2.0)
def test_classify_sign_is_sign_class_off_resonance(alpha, T):
    assume(abs(alpha) > 1e-6)
    p = ProblemParams(alpha / T, T)
    assume(not check_resonance(p).resonant)
    assert classify_sign(p, grid_n=21).classification is sign_class(p.alpha)


def test_sign_scales_with_T():
    # classification depends on alpha = m*T only
    rep = classify_sign(ProblemParams(math.pi / 8, 2.0))
    assert rep.classification is SignClass.NONNEG_VANISHING_ON_P


def test_kernel_bounds_bracket_row_average():
    # sup > 1/(2Tm) > inf for m in the positivity window (row integral is 1/m)
    # pairs with alpha = mT inside (0, pi/4), where Gbar is strictly positive
    for m, T in [(0.3, 1.0), (0.7, 1.0), (0.35, 2.0)]:
        M, L, argmax, argmin = kernel_bounds(ProblemParams(m, T))
        avg = 1.0 / (2 * T * m)
        assert L < avg < M
        assert 0 < L
        km = Kernel(ProblemParams(m, T))
        lo, hi = km.gbar_diagonal_limits(argmax[0]) if argmax[0] == argmax[1] else (None, None)
        # the reported extrema are attained values (within refinement tolerance)
        assert M >= np.max(km.gbar(*np.meshgrid(np.linspace(-T, T, 101), np.linspace(-T, T, 101)))) - 1e-9


def test_kernel_bounds_refinement_improves():
    p = ProblemParams(0.5, 1.0)
    M0, L0, _, _ = kernel_bounds_oracle.kernel_bounds(p, grid_n=51, refine_iters=0)
    M2, L2, _, _ = kernel_bounds_oracle.kernel_bounds(p, grid_n=51, refine_iters=2)
    assert M2 >= M0 - 1e-15
    assert L2 <= L0 + 1e-15


def window_params(magnitude, negative, T):
    p = ProblemParams((-magnitude if negative else magnitude) / T, T)
    assume(abs(p.alpha) <= math.pi / 4)
    return p


WINDOW = dict(
    magnitude=st.floats(min_value=1e-6, max_value=math.pi / 4),
    negative=st.booleans(),
    T=st.floats(min_value=0.2, max_value=4.0),
)


@settings(max_examples=40, deadline=None)
@given(**WINDOW, grid_n=st.integers(min_value=3, max_value=120))
def test_kernel_bounds_enclose_the_grid_search(magnitude, negative, T, grid_n):
    # the closed form is exact, so no grid can see beyond it
    p = window_params(magnitude, negative, T)
    M, L, _, _ = kernel_bounds(p)
    Mo, Lo, _, _ = kernel_bounds_oracle.kernel_bounds(p, grid_n=grid_n)
    assert M >= Mo
    assert L <= Lo


@settings(max_examples=25, deadline=None)
@given(**WINDOW)
@example(magnitude=0.5, negative=False, T=1.0)  # exa2, which the cone checks use
def test_kernel_bounds_equal_the_grid_search_on_201_points(magnitude, negative, T):
    # the 201-point grid holds the corners and the diagonal points at t = +-T/2
    p = window_params(magnitude, negative, T)
    assert kernel_bounds(p)[:2] == kernel_bounds_oracle.kernel_bounds(p)[:2]


def _gbar_mp(alpha, z, y, side=0):
    """Gbar at z = t/T, y = s/T from the paper's G, Gbar(t,s) = m*G(t,-s) - dG/ds(t,s).

    With G(t,s) = cos(m(T - |t-s|)) / (2m sin(mT)) this is
    [cos(alpha(1 - |z+y|)) + sign(z-y) sin(alpha(1 - |z-y|))] / (2 sin(alpha));
    on the diagonal, side=-1 and side=+1 give the limits s -> t- and s -> t+.
    """
    sign = mpmath.sign(z - y) if side == 0 else -side
    num = mpmath.cos(alpha * (1 - abs(z + y))) + sign * mpmath.sin(alpha * (1 - abs(z - y)))
    return num / (2 * mpmath.sin(alpha))


# no shrink phase: each example evaluates ~500 points at 50 digits, and
# shrinking a failure would take minutes
@settings(max_examples=25, deadline=None, phases=[Phase.explicit, Phase.generate])
@given(**WINDOW, points=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=40))
def test_kernel_bounds_enclose_gbar_at_50_digits(magnitude, negative, T, points):
    p = window_params(magnitude, negative, T)
    M, L, argmax, argmin = kernel_bounds(p)
    slack = 8 * np.finfo(float).eps * max(abs(M), abs(L))  # M and L are rounded once to double
    u = np.linspace(-1.0, 1.0, 21)
    grid = [(z, y) for z in u for y in u]
    with mpmath.workdps(50):
        a, T_mp = mpmath.mpf(p.alpha), mpmath.mpf(T)
        values = [_gbar_mp(a, mpmath.mpf(z), mpmath.mpf(y)) for z, y in grid + points if z != y]
        values += [_gbar_mp(a, mpmath.mpf(z), mpmath.mpf(z), side) for z in u for side in (-1, 1)]
        assert min(values) >= L - slack
        assert max(values) <= M + slack
        # both extremizers lie on the diagonal, where the extrema are one-sided limits
        assert argmax[0] == argmax[1] and argmin[0] == argmin[1]
        zmax, zmin = mpmath.mpf(argmax[0]) / T_mp, mpmath.mpf(argmin[0]) / T_mp
        assert abs(max(_gbar_mp(a, zmax, zmax, side) for side in (-1, 1)) - M) <= slack
        assert abs(min(_gbar_mp(a, zmin, zmin, side) for side in (-1, 1)) - L) <= slack


@pytest.mark.parametrize("m", [1.0, -1.0, math.nextafter(math.pi / 4, 1.0), 2.0])
def test_kernel_bounds_outside_the_window_is_bad_window(m):
    with pytest.raises(BadWindow):
        kernel_bounds(ProblemParams(m, 1.0))


def test_kernel_bounds_resonant_before_window():
    with pytest.raises(ResonantKernel):
        kernel_bounds(ProblemParams(math.pi, 1.0))


@pytest.mark.parametrize("side, dims", [(3162, 2), (215, 3)])
def test_lattice_cap_sits_at_ten_million_points(side, dims):
    check_lattice_size("n", side, dims)
    with pytest.raises(ValueError, match="above the cap of 10000000"):
        check_lattice_size("n", side + 1, dims)


def test_classify_sign_rejects_an_oversized_grid():
    with pytest.raises(ValueError, match="grid_n=1000000 asks for 1000000\\*\\*2 lattice points"):
        classify_sign(ProblemParams(0.5, 1.0), grid_n=10**6)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda k: k.g(np.array([0.3 + 0.5j]), 0.1),
        lambda k: k.gbar(np.array([0.3 + 0.5j]), 0.1),
        lambda k: k.gbar(0.3, 0.1 + 0.5j),
        lambda k: k.gbar_diagonal_limits(np.array([0.3 + 0.5j])),
    ],
    ids=["g", "gbar", "gbar-python-complex", "gbar_diagonal_limits"],
)
def test_kernel_rejects_complex_points(evaluate):
    with pytest.raises(ValueError, match="^points must be real, got complex values$"):
        evaluate(Kernel(ProblemParams(0.5, 1.0)))


def test_check_domain_returns_the_float_points_it_checked():
    params = ProblemParams(0.5, 1.0)
    t, s = check_domain(params, [0, 1], np.float32(0.5))
    assert t.dtype == s.dtype == np.float64
    assert t.tolist() == [0.0, 1.0] and s.shape == () and s == 0.5
    with pytest.raises(OutOfDomain):  # the points are checked in turn
        check_domain(params, 2.0, 0.5j)
