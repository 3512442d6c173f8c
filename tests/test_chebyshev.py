"""refleq.chebyshev against closed forms and numpy's own Chebyshev series.

The chop cases follow Aurentz & Trefethen's paper: a series that has
reached a plateau at rounding level within three quarters of its length
chops, one that is still falling at its end or is noise throughout does
not, and a zero series keeps one coefficient.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import refleq
from refleq import chebyshev


def x_of(n):
    """Level n's points as x = 1 - 2z of [-1, 1], where numpy's Chebyshev series live."""
    return 1.0 - 2.0 * chebyshev.level(n).points


def test_the_points_run_from_0_to_1_and_double_into_the_next_level():
    z16, z32 = chebyshev.level(16).points, chebyshev.level(32).points
    assert (z16[0], z16[-1]) == (0.0, 1.0) and np.all(np.diff(z16) > 0)
    assert np.array_equal(z32[::2], z16)  # a doubling keeps every point of the level below bit for bit


def test_a_level_is_built_once_and_read_only():
    assert chebyshev.level(16) is chebyshev.level(np.int64(16))
    with pytest.raises(ValueError):
        chebyshev.level(16).newton[0, 0] = 1.0


@pytest.mark.parametrize("n", [16, 32, 64])
def test_coefficients_recover_a_chebyshev_series_of_degree_n(n):
    c = np.random.default_rng(n).standard_normal(n + 1)
    values = np.polynomial.chebyshev.chebval(x_of(n), c)
    assert np.max(np.abs(chebyshev.coefficients(values[:, None])[:, 0] - c)) <= 1e-13


def test_interpolate_is_exact_on_the_points_and_spectral_between_them():
    n = 32
    values = np.column_stack([np.exp(x_of(n)), np.sin(3 * x_of(n))])
    s = np.linspace(0.0, 1.0, 101)
    out = chebyshev.interpolate(values, s)
    assert np.max(np.abs(out - np.column_stack([np.exp(1 - 2 * s), np.sin(3 * (1 - 2 * s))]))) <= 1e-14
    assert np.array_equal(chebyshev.interpolate(values, chebyshev.level(n).points), values)


@pytest.mark.parametrize(
    "n, f, chops",
    [
        (32, np.exp, True),
        (16, np.exp, False),  # its coefficients reach rounding level only at the last few
        (32, lambda x: 1 / (1 + 25 * x**2), False),
        (64, lambda x: np.sin(20 * x), False),
        (128, lambda x: np.sin(20 * x), True),
        (16, lambda x: 0.3 + 0 * x, True),
    ],
    ids=["exp-32", "exp-16", "runge-32", "sin20-64", "sin20-128", "constant-16"],
)
def test_standard_chop_cuts_exactly_the_resolved_series(n, f, chops):
    c = chebyshev.coefficients(f(x_of(n))[:, None])[:, 0]
    assert (chebyshev.standard_chop(c) < n + 1) == chops


def test_standard_chop_edge_cases():
    assert chebyshev.standard_chop(np.zeros(17)) == 1
    assert chebyshev.standard_chop(np.ones(16)) == 16  # too short to judge
    noise = np.random.default_rng(0).standard_normal(65)
    assert chebyshev.standard_chop(noise) == 65
    # exp's coefficients at a tolerance of 1e-8: kept up to where they fall below it
    c = chebyshev.coefficients(np.exp(x_of(32))[:, None])[:, 0]
    cut = chebyshev.standard_chop(c, 1e-8)
    assert np.abs(c[cut]) < 1e-8 <= np.abs(c[cut - 2])


def test_tail_is_the_last_coefficients_relative_to_the_largest():
    assert chebyshev.tail(np.array([2.0, 1.0, 0.0, 0.5, -0.25])) == 0.25
    assert chebyshev.tail(np.zeros(5)) == 0.0


def test_importing_reduce_builds_no_level():
    src = str(Path(refleq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import refleq.reduce, refleq.chebyshev as c; print(c._build.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
