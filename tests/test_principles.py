"""The maximum and anti-maximum principles on the sign window, with the closed-form kernel bounds.

For 0 < |alpha| <= pi/4 the solution of x' + m*x(-t) = h, x(-T) - x(T) =
lambda is u(t) = integral of Gbar(t, s) h(s) ds + lambda*Gbar(t, -T), and
L <= Gbar <= M with (M, L) from kernel_bounds, so every h >= 0 and
lambda >= 0 give L*(int(h) + lambda) <= u <= M*(int(h) + lambda).  For
alpha > 0, L >= 0 is the maximum principle; for alpha < 0, M <= 0 is the
anti-maximum principle.  At |alpha| = pi/4 that bound is 0, the non-strict
principle.  h is a sum of hats, so int(h) is exact and the quadrature error
of solve_grid has the a priori bound derived in `quadrature_error_bound`.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from refleq.kernel import Kernel, ProblemParams, inverse_norm, kernel_bounds
from refleq.linsolve import ReflectionProblem, solve_grid

N = 200
N_QUAD = 2000

# (height, half-width / T, position of the centre in [0, 1] across the admissible range)
HATS = st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(0.01, 0.5), st.floats(0.0, 1.0)), min_size=1, max_size=4)


def hat_sum(hats, T):
    """h as a vectorized callable, its integral, and the arrays (height, half-width) of its hats."""
    c = np.array([hgt for hgt, _, _ in hats])
    w = np.array([frac * T for _, frac, _ in hats])
    x = np.array([(pos * 2.0 - 1.0) * (T - wk) for (_, _, pos), wk in zip(hats, w)])  # support inside [-T, T]

    def h(s):
        return np.maximum(0.0, 1.0 - np.abs(np.asarray(s, dtype=float)[..., None] - x) / w) @ c

    return h, float(np.sum(c * w)), c, w


def quadrature_error_bound(alpha, T, c, w, n_quad, gbar_max=None, lam=0.0):
    """A priori bound on |u - solve_grid(..., n=N, n_quad)| at every node, for h a sum of hats.

    The solver applies Simpson's rule on cells of width at most d = 2T/n_quad
    whose edges include s = +-t, so Gbar(t, .) is smooth on every cell.  Each
    branch of Gbar is A(z)B(y)/(2 sin alpha) with |A|, |B| <= sqrt 2 and B a
    sum of sin and cos of alpha*y, so |d^k Gbar/ds^k| <= G_k = |alpha|^k / (T^k |sin alpha|).
    On a cell, h is a linear part l plus J*(s - c)_+ for each kink c at which
    its slope jumps by J; a hat of height h_k and half-width w_k has jumps
    h_k/w_k, 2h_k/w_k and h_k/w_k.  Per kink:
      - Simpson's rule on (s - c)_+ over [p, p + d], c = p + theta*d, errs by
        d^2 theta(1 - 3 theta)/6 (theta <= 1/2) or d^2 (1 - theta)(3 theta - 2)/6,
        at most d^2/24, scaled by |Gbar(t, c)| <= gbar_max, by default
        max(|M|, |L|) from kernel_bounds (on the window only) and anywhere
        1/|sin alpha| = G_0 (from |A|, |B| <= sqrt 2);
      - (Gbar(t, s) - Gbar(t, c)) J (s - c)_+ is at most G_1 |J| d^2 on the
        cell, so the rule and the integral each lie within G_1 |J| d^3.
    The smooth rest Gbar*l errs by at most d^5/2880 max|(Gbar*l)''''| per cell,
    over a total width 2T, with |l| <= max h + d max|h'|.  Rounding: the five
    prefix-sum reads each err by at most n_cells*eps times sqrt 2 int h,
    scaled by the outer factor sqrt 2/(2 |sin alpha|); 8 in place of 5 covers
    the rounding of each Simpson term.  A jump lambda enters in closed form,
    added to the prefix sums before the outer factor, so it adds no
    quadrature error and at most a few eps*|lambda|*G_0 of rounding, which
    counting |lambda| with int h in the rounding term covers.
    """
    if gbar_max is None:
        M, L, _, _ = kernel_bounds(ProblemParams(alpha / T, T))
        gbar_max = max(abs(M), abs(L))
    d = 2.0 * T / n_quad
    G = [abs(alpha) ** k / (T**k * abs(math.sin(alpha))) for k in range(5)]
    jumps, slope, top, integral = float(np.sum(4 * c / w)), float(np.sum(c / w)), float(np.sum(c)), float(np.sum(c * w))
    kink = jumps * (gbar_max * d**2 / 24 + 2 * G[1] * d**3)
    smooth = 2 * T * d**4 / 2880 * (G[4] * (top + slope * d) + 4 * G[3] * slope)
    rounding = 8 * (n_quad + 2 * (N + 1)) * np.finfo(float).eps * (integral + abs(lam)) * G[0]
    return kink + smooth + rounding


@settings(max_examples=200, deadline=None)
@given(
    T=st.sampled_from([2.0**k for k in range(-2, 3)]),
    alpha=st.floats(1e-3, math.pi / 4) | st.just(math.pi / 4),
    sign=st.sampled_from([1.0, -1.0]),
    hats=HATS,
    lam=st.just(0.0) | st.floats(0.0, 10.0),
)
@example(T=1.0, alpha=math.pi / 4, sign=1.0, hats=[(10.0, 0.01, 0.0)], lam=0.0)
@example(T=1.0, alpha=math.pi / 4, sign=-1.0, hats=[(10.0, 0.01, 1.0)], lam=0.0)
@example(T=1.0, alpha=math.pi / 4, sign=-1.0, hats=[(0.1, 0.01, 0.0)], lam=10.0)
def test_solution_lies_between_the_kernel_bounds_times_the_integral(T, alpha, sign, hats, lam):
    """L*(int(h) + lambda) <= u <= M*(int(h) + lambda) for h >= 0 and lambda >= 0.

    u = integral of Gbar(t, s) dmu(s) for the measure mu = h(s) ds +
    lambda*delta_{-T}, of mass int(h) + lambda; mu >= 0 and L <= Gbar <= M
    give the bounds for either sign of m.  lambda >= 0 is the boundary
    condition x(-T) >= x(T) of both principles.  For m < 0, taking
    lambda*sign(m) >= 0, that is lambda <= 0, does not give them: a
    negative lambda gives mu both signs, and u can take both too
    (m = -0.785, T = 1, one hat of height 1, half-width 0.1T and integral
    0.1, and lambda = -3 give u from -0.07 to 2.93).
    """
    alpha *= sign
    m = alpha / T
    assert m * T == alpha  # T is a power of two
    M, L, _, _ = kernel_bounds(ProblemParams(m, T))
    h, integral, c, w = hat_sum(hats, T)
    problem = ReflectionProblem(ProblemParams(m, T), h, lam=lam)
    u = solve_grid(problem, n=N, n_quad=N_QUAD).values
    eps = quadrature_error_bound(alpha, T, c, w, N_QUAD, lam=lam)
    # the bound must also hold for twice the cells, so it bounds the difference of the two solves
    u_fine = solve_grid(problem, n=N, n_quad=2 * N_QUAD).values
    assert np.max(np.abs(u - u_fine)) <= eps + quadrature_error_bound(alpha, T, c, w, 2 * N_QUAD, lam=lam)
    assert np.all(L * (integral + lam) - eps <= u)
    assert np.all(u <= M * (integral + lam) + eps)


@st.composite
def alpha_pairs(draw):
    """0 < a1 < a2 <= pi/4, with a2 = pi/4 itself among the draws."""
    a1 = draw(st.floats(1e-3, math.pi / 4, exclude_max=True))
    return a1, draw(st.floats(a1, math.pi / 4, exclude_min=True) | st.just(math.pi / 4))


@settings(max_examples=200, deadline=None)
@given(
    T=st.sampled_from([2.0**k for k in range(-2, 3)]),
    alphas=alpha_pairs(),
    sign=st.sampled_from([1.0, -1.0]),
    hats=HATS,
    lam=st.just(0.0) | st.floats(0.0, 10.0),
)
@example(T=1.0, alphas=(1e-3, math.pi / 4), sign=1.0, hats=[(10.0, 0.01, 0.0)], lam=0.0)
@example(T=1.0, alphas=(1e-3, math.pi / 4), sign=-1.0, hats=[(10.0, 0.01, 1.0)], lam=0.0)
@example(T=1.0, alphas=(1e-3, math.pi / 4), sign=1.0, hats=[(0.1, 0.01, 0.0)], lam=10.0)
@example(T=1.0, alphas=(1e-3, math.pi / 4), sign=-1.0, hats=[(0.1, 0.01, 1.0)], lam=10.0)
def test_solutions_are_ordered_by_m_within_one_sign(T, alphas, sign, hats, lam):
    """The comparison principle: m1 < m2 of one sign in the window, h >= 0 and lambda >= 0 give u_m1 >= u_m2.

    With L_m x = x' + m*x(-t), L_m1 u1 = L_m2 u2 = h gives
    L_m1 (u1 - u2) = (m2 - m1) u2(-t), and both solutions take the jump
    x(-T) - x(T) = lambda, so it cancels in u1 - u2, which is periodic:
    u1(t) - u2(t) = (m2 - m1) * integral of Gbar_m1(t, s) u2(-s) ds.
    For 0 < m1 < m2 <= pi/(4T), Gbar_m1 >= 0, and u2 >= L*(int(h) + lambda)
    >= 0 by the bounds property (h >= 0, lambda >= 0); for
    -pi/(4T) <= m1 < m2 < 0, Gbar_m1 <= 0 and u2 <= M*(int(h) + lambda) <= 0.
    Either way the integrand is >= 0.  For m1 < 0 < m2 the same identity
    gives u1 <= 0 <= u2: the order reverses, so such pairs are not drawn.
    Each solve_grid error is within quadrature_error_bound.
    """
    lo, hi = alphas
    a1, a2 = (lo, hi) if sign > 0 else (-hi, -lo)
    h, _, c, w = hat_sum(hats, T)
    u1, u2 = (
        solve_grid(ReflectionProblem(ProblemParams(a / T, T), h, lam=lam), n=N, n_quad=N_QUAD).values for a in (a1, a2)
    )
    eps = quadrature_error_bound(a1, T, c, w, N_QUAD, lam=lam) + quadrature_error_bound(a2, T, c, w, N_QUAD, lam=lam)
    assert np.all(u1 - u2 >= -eps)


@settings(max_examples=100, deadline=None)
@given(
    T=st.sampled_from([2.0**k for k in range(-2, 3)]),
    alpha=st.floats(math.pi / 4 + 0.01, math.pi - 0.1),
    sign=st.sampled_from([1.0, -1.0]),
)
@example(T=1.0, alpha=math.pi / 4 + 0.01, sign=1.0)
@example(T=1.0, alpha=math.pi / 4 + 0.01, sign=-1.0)
@example(T=0.25, alpha=math.pi - 0.1, sign=-1.0)
def test_the_sign_window_is_sharp(T, alpha, sign):
    """Outside the window a nonnegative h can give u of the excluded sign.

    For |alpha| > pi/4, Gbar takes the sign that the window excludes
    (negative for m > 0, positive for m < 0).  (t*, s*) is the grid node of
    the most excluded-sign Gbar with |t* - s*| >= 0.1T, off the diagonal,
    where Gbar jumps, so Gbar(t*, .) is continuous across the hat of
    half-width 0.02T at s* (clipped to [-T, T]), and u(t*), about
    Gbar(t*, s*)*int(h), must have the excluded sign by more than the
    quadrature error bound.  kernel_bounds holds only on the window, so the
    bound takes |Gbar| <= 1/sin|alpha| in its place.
    """
    alpha *= sign
    m = alpha / T
    grid = np.linspace(-T, T, N + 1)
    excluded = np.sign(m) * Kernel(ProblemParams(m, T)).gbar(grid[:, None], grid)
    excluded[np.abs(grid[:, None] - grid) < 0.1 * T] = math.inf
    i, j = np.unravel_index(np.argmin(excluded), excluded.shape)
    w = 0.02 * T

    def hat(s):
        return np.maximum(0.0, 1.0 - np.abs(np.asarray(s, dtype=float) - grid[j]) / w)

    u = solve_grid(ReflectionProblem(ProblemParams(m, T), hat), n=N, n_quad=N_QUAD).values
    eps = quadrature_error_bound(alpha, T, np.array([1.0]), np.array([w]), N_QUAD, gbar_max=1.0 / math.sin(abs(alpha)))
    assert np.sign(m) * u[i] < -eps


@settings(max_examples=100, deadline=None)
@given(
    T=st.sampled_from([2.0**k for k in range(-2, 3)]),
    k=st.integers(0, 3),
    offset=st.floats(1e-6, math.pi / 2),
    side=st.sampled_from([1.0, -1.0]),
    sign=st.sampled_from([1.0, -1.0]),
    hats=HATS,
)
@example(T=1.0, k=0, offset=1e-6, side=1.0, sign=1.0, hats=[(10.0, 0.01, 0.0)])
@example(T=1.0, k=1, offset=1e-6, side=-1.0, sign=-1.0, hats=[(10.0, 0.01, 1.0)])
@example(T=0.25, k=3, offset=1e-6, side=1.0, sign=1.0, hats=[(10.0, 0.5, 0.5)])
@example(T=4.0, k=3, offset=math.pi / 2, side=1.0, sign=-1.0, hats=[(0.1, 0.01, 0.5)])
def test_the_quadrature_error_bound_holds_near_resonance(T, k, offset, side, sign, hats):
    """solve_grid at n_quad and 2*n_quad differ by at most the sum of the two a priori bounds, up to 1e-6 from k*pi.

    Off the sign window kernel_bounds gives nothing, so the kink term takes
    |Gbar| <= 1/|sin alpha| (from |A|, |B| <= sqrt 2).  With k*pi the
    multiple of pi nearest alpha and d = |alpha - k*pi| <= pi/2,
    |sin alpha| = sin d, and sin x >= (2/pi)*x on [0, pi/2] (sin is concave
    there and equal to (2/pi)*x at both ends), so
    1/|sin alpha| <= (pi/2)/d = (pi/2)*inverse_norm(params)/T, as
    inverse_norm = T/d.  The bound grows as 1/d towards resonance, and so
    does the solution.
    """
    alpha = sign * (k * math.pi + side * offset)
    params = ProblemParams(alpha / T, T)
    assert params.alpha == alpha  # T is a power of two
    h, _, c, w = hat_sum(hats, T)
    gbar_max = math.pi / 2 * inverse_norm(params) / T
    problem = ReflectionProblem(params, h)
    u, u_fine = (solve_grid(problem, n=N, n_quad=n_quad).values for n_quad in (N_QUAD, 2 * N_QUAD))
    eps = sum(quadrature_error_bound(alpha, T, c, w, n_quad, gbar_max=gbar_max) for n_quad in (N_QUAD, 2 * N_QUAD))
    assert np.max(np.abs(u - u_fine)) <= eps
