"""kernel.spectrum and kernel.inverse_norm against the Fourier collocation matrix D + m*P.

On N odd uniform points of one period, D (Trefethen, Spectral Methods in
MATLAB, ch. 3) differentiates every trigonometric polynomial of degree
(N - 1)/2 exactly and P maps its values at t to those at -t, so D + m*P is
x' + m*x(-t) restricted to the modes k <= (N - 1)/2: its eigenvalues are
spectrum(params, (N - 1)/2) and its singular values |m +- kw|, exactly.
Each bound is LAPACK's backward error, a few N*eps*||A|| (Golub & Van
Loan, ch. 7-8), carried through the eigenvalue's condition number.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from refleq.kernel import RESONANCE_TOL, ProblemParams, check_resonance, inverse_norm, spectrum
from refleq.linsolve import PeriodicGreenSolver

N = 41
K = (N - 1) // 2
EPS = np.finfo(float).eps


def collocation(params):
    """D + m*P on t_j = -T + 2Tj/N, j = 0..N-1."""
    j = np.arange(N)
    diff = j[:, None] - j[None, :]
    with np.errstate(divide="ignore"):
        d = np.where(diff == 0, 0.0, 0.5 * (-1.0) ** diff / np.sin(diff * (math.pi / N)))
    p = np.zeros((N, N))
    p[j, -j % N] = 1.0  # -t_j = t_{N-j} on the periodic grid
    return d * (math.pi / params.T) + params.m * p


OFF_RESONANCE = dict(m=st.floats(-10.0, 10.0), T=st.floats(0.5, 3.0))


@settings(max_examples=60, deadline=None)
@given(**OFF_RESONANCE)
@example(m=0.5, T=1.0)
@example(m=2.0, T=1.3)
@example(m=-0.7, T=2.0)
@example(m=math.pi + 1e-3, T=1.0)
@example(m=3 * math.pi - 1e-6, T=1.0)
def test_eigenvalues_of_the_collocation_matrix_are_the_spectrum(m, T):
    assume(m != 0)
    params = ProblemParams(m, T)
    assume(1 / inverse_norm(params) >= 1e-6)
    exact = spectrum(params, K)
    assert exact.shape == (N,)
    got = np.linalg.eigvals(collocation(params))
    rows, cols = linear_sum_assignment(np.abs(exact[:, None] - got[None, :]))
    w = math.pi / T
    kw = np.concatenate([[0.0], np.repeat(np.arange(1, K + 1) * w, 2)])
    # each pair's eigenvalue condition number is max(|m|, kw)/|lambda|; m's own mode is normal
    kappa = np.maximum(abs(m), kw) / np.abs(exact)
    norm = abs(m) + K * w
    assert np.all(np.abs(got[cols] - exact[rows]) <= N * EPS * norm * kappa[rows])


@settings(max_examples=60, deadline=None)
@given(**OFF_RESONANCE)
@example(m=0.5, T=1.0)
@example(m=2.0, T=1.3)
@example(m=-0.7, T=2.0)
@example(m=math.pi + 1e-3, T=1.0)
@example(m=3 * math.pi - 1e-6, T=1.0)
def test_least_singular_value_is_one_over_the_inverse_norm(m, T):
    assume(m != 0)
    params = ProblemParams(m, T)
    assume(1 / inverse_norm(params) >= 1e-6)
    smallest = np.linalg.svd(collocation(params), compute_uv=False)[-1]
    # singular values are perfectly conditioned: the backward error alone
    assert abs(smallest - 1 / inverse_norm(params)) <= N * EPS * (abs(m) + K * math.pi / T)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_green_solver_gain_on_the_extremal_modes(k, sign):
    # x' + m x(-t) = cos kwt + sin kwt is solved by (cos kwt - sin kwt)/(m - kw), and with
    # both signs flipped by (cos kwt + sin kwt)/(m + kw): the gain is 1/|m -+ kw| in any norm
    params = ProblemParams(0.5, 1.0)
    kw = k * math.pi / params.T
    t = np.linspace(-params.T, params.T, 401)
    solver = PeriodicGreenSolver(params, t, n_quad=4000)
    u = solver.solve(lambda s: np.cos(kw * s) + sign * np.sin(kw * s))
    h = np.cos(kw * t) + sign * np.sin(kw * t)
    gain = np.max(np.abs(u)) / np.max(np.abs(h))
    # Simpson on cells of 5e-4: h^4 * (|m| + kw)^4 / 180 is below 1e-10 relative
    assert gain == pytest.approx(1 / abs(params.m - sign * kw), rel=1e-10)


def _ulps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


# within 8 ulps of k*pi and of either RESONANCE_TOL edge around it, both signs
EDGE_ALPHAS = st.builds(
    lambda sign, k, edge, ulps: sign * _ulps(k * math.pi + edge, ulps),
    st.sampled_from([1.0, -1.0]),
    st.integers(0, 5),
    st.sampled_from([0.0, -RESONANCE_TOL, RESONANCE_TOL]),
    st.integers(-8, 8),
)


@settings(max_examples=300)
@given(alpha=EDGE_ALPHAS | st.floats(-20.0, 20.0), T=st.sampled_from([1.0, 0.5, 3.0]) | st.floats(0.1, 10.0))
def test_inverse_norm_is_infinite_exactly_where_resonant(alpha, T):
    assume(alpha / T != 0)
    params = ProblemParams(alpha / T, T)
    assert math.isinf(inverse_norm(params)) == check_resonance(params).resonant


def test_spectrum_small_cases():
    params = ProblemParams(-0.5, 2.0)
    assert spectrum(params, 0).tolist() == [-0.5]
    assert spectrum(params, 1)[0] == -0.5 and spectrum(params, 1)[1] == -spectrum(params, 1)[2]
    assert inverse_norm(params) == 2.0 / 1.0  # dist(|alpha|, pi*N_0) = 1 at alpha = -1
    with pytest.raises(ValueError):
        spectrum(params, -1)


@pytest.mark.parametrize(
    "m, T, imag", [(1.0, 1e-300, math.pi * 1e300), (1e200, 1e-200, 1e200 * math.sqrt(math.pi**2 - 1))]
)
def test_spectrum_is_finite_where_the_squared_modulus_overflows(m, T, imag):
    # (m - w)(m + w) overflows here, while the pair +-sqrt(m^2 - w^2) is finite;
    # the overflow warning, which the suite turns into an error, must not arise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eigenvalues = spectrum(ProblemParams(m, T), 1)
    assert np.all(np.isfinite(eigenvalues))
    assert eigenvalues[0] == m and eigenvalues[1] == -eigenvalues[2]
    assert eigenvalues[1].real == 0.0 and eigenvalues[1].imag == pytest.approx(imag, rel=4 * EPS)


@pytest.mark.parametrize("k_max", [2.5, 10**15])
def test_spectrum_rejects_a_size_that_is_not_a_capped_integer(k_max):
    with pytest.raises(ValueError, match="k_max"):
        spectrum(ProblemParams(0.5, 1.0), k_max)
