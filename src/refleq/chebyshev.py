"""Chebyshev points of [0, 1]: interpolation, coefficients and the chop of a coefficient tail, numpy only.

level(n) holds degree n's n + 1 points z_j = (1 - cos(pi j/n))/2, which run from 0 to 1, their barycentric
weights and collocation's Newton matrix; it is built on first use and kept.  z = (1 - x)/2 maps the usual
points x_j = cos(pi j/n) of [-1, 1] onto them, which only flips the signs of the odd coefficients.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernel import check_lattice_size

#: points at which interpolate evaluates the barycentric formula at once
BLOCK = 4096


@dataclass(frozen=True)
class Level:
    """Degree n's points and weights, and collocation's Newton matrix without f: D in z (Trefethen, Spectral
    Methods in MATLAB, 2000, ch. 6) in both rows of (v, u), 2(n + 1) square, the rows at z = 1 fixing the state."""

    points: np.ndarray
    weights: np.ndarray
    newton: np.ndarray


def level(n: int) -> Level:
    """Degree n's Level, built on first use and kept; n must be an integer >= 1 with n**2 within the lattice cap."""
    check_lattice_size("n", n, 2)
    return _build(int(n))


@functools.lru_cache(maxsize=8)  # more than collocation's degrees, so those stay built
def _build(n: int) -> Level:
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** np.arange(n + 1)
    d = np.outer(c, 1.0 / c) / (x[:, None] - x + np.eye(n + 1))
    newton = np.kron(np.eye(2), 2.0 * (np.diag(d.sum(axis=1)) - d))  # dz/dx = -1/2
    newton[[n, 2 * n + 1]] = np.eye(2 * n + 2)[[n, 2 * n + 1]]
    arrays = (1.0 - x) / 2.0, 1.0 / c, newton
    for array in arrays:
        array.flags.writeable = False  # shared by every caller
    return Level(*arrays)


def interpolate(values, s):
    """values (n + 1, k) at level n's points, interpolated to the points s of [0, 1], BLOCK points at a time
    (Berrut & Trefethen, SIAM Review 46, 2004)."""
    grid = level(len(values) - 1)
    points, weights = grid.points, grid.weights
    out = np.empty((len(s), values.shape[1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        for first in range(0, len(s), BLOCK):
            c = weights / (s[first : first + BLOCK, None] - points)
            out[first : first + BLOCK] = (c @ values) / c.sum(axis=1, keepdims=True)
    i = np.minimum(np.searchsorted(points, s), len(points) - 1)
    on_point = points[i] == s  # inf/inf in the formula: take the value there
    out[on_point] = values[i[on_point]]
    return out


def coefficients(values):
    """The Chebyshev coefficients c_0..c_n of the interpolant of values (n + 1, ...) at level n's points, along
    axis 0: a DCT-I, as the real part of np.fft.rfft of the even extension."""
    n = len(values) - 1
    c = np.fft.rfft(np.concatenate([values, values[-2:0:-1]]), axis=0).real / n
    c[[0, n]] /= 2.0
    return c


def tail(c) -> float:
    """The larger of |c_{n-1}| and |c_n| over max|c_k|, 0.0 for a zero series: how far from resolved the series is."""
    top = np.max(np.abs(c))
    return float(np.max(np.abs(c[-2:])) / top) if top else 0.0


def standard_chop(c, tol: float = np.finfo(float).eps) -> int:
    """How many of the coefficients c to keep: fewer than len(c) once their envelope has reached a plateau at the
    relative level tol, len(c) while it has not.  Aurentz & Trefethen, "Chopping a Chebyshev series", ACM TOMS 43,
    2017 (Chebfun's standardChop), with its 1-based indices; fewer than 17 coefficients are never judged."""
    n = len(c)
    if n < 17:
        return n
    envelope = np.maximum.accumulate(np.abs(c)[::-1])[::-1]
    if envelope[0] == 0:
        return 1
    envelope = envelope / envelope[0]
    for j in range(2, n + 1):  # find the plateau
        j2 = math.floor(1.25 * j + 5.5)  # MATLAB's round, half away from zero
        if j2 > n:
            return n
        e1, e2 = envelope[j - 1], envelope[j2 - 1]
        if e1 == 0 or e2 / e1 > 3 * (1 - math.log(e1) / math.log(tol)):
            break  # the plateau starts at j - 1, and envelope[j - 2] != 0, or the loop would have stopped at j - 1
    # the cutoff: the lowest point of the envelope's log against a line that falls by a third of log(tol)
    floor = tol ** (7 / 6)
    j3 = int(np.sum(envelope >= floor))
    if j3 < j2:
        j2 = j3 + 1
        envelope[j2 - 1] = floor
    d = int(np.argmin(np.log10(envelope[:j2]) + np.linspace(0, -np.log10(tol) / 3, j2))) + 1
    return max(d - 1, 1)
