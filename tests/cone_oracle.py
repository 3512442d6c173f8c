"""Earlier forms of two cone helpers, kept as test oracles.

`_constraint_systems` writes the four cone theorem systems out by hand.  It
was the library's before the library derived the m < 0 and negative-annulus
systems from the positive theorem's by the two symmetries m -> -m and
x -> -x.  Each variant's intervals, relations and growth coefficients are
spelled out separately here, so a differential test against it checks the
derivation.

`sample_inequality` is the library's `_sample_inequality` before it
broadcast the lattice axes: it builds the full t-x-y meshgrid and calls f
on density**3 points.

`sweep_annulus` is the library's sweep before it sampled each distinct
constraint once: it calls `_check` once per (r, R) pair and shares nothing
between pairs.
"""

from __future__ import annotations

import math

import numpy as np

from refleq.cone import ConeBounds, _check
from refleq.linsolve import vectorized


def sample_inequality(f, m, T, xlo, xhi, relation, coeff, density):
    """Min margin of `f(t,x,y) + m*x (rel) coeff*x` over a t-x-y meshgrid.

    Returns (margin, (t, x, y) witness, sample count); the margin is inf and
    the witness None if every sample is NaN.
    """
    ts = np.linspace(-T, T, density)
    xs = np.linspace(xlo, xhi, density)
    t, x, y = (g.ravel() for g in np.meshgrid(ts, xs, xs, indexing="ij"))
    lhs = vectorized(f)(t, x, y) + m * x
    rhs = coeff * x
    margin = lhs - rhs if relation == ">=" else rhs - lhs
    # a NaN sample decides nothing; C-order argmin keeps the first of equal margins
    k = int(np.argmin(np.where(np.isnan(margin), math.inf, margin)))
    if not margin[k] < math.inf:
        return math.inf, None, margin.size
    return float(margin[k]), (float(t[k]), float(x[k]), float(y[k])), margin.size


def _constraint_systems(bounds: ConeBounds, variant: str):
    """Interval systems and growth coefficients for each theorem variant.

    Returns (window_check, base, branch1, branch2) where base and the
    branches are lists of (label, xlo, xhi, relation, coeff).
    """
    M, L, m, T, r, R = bounds.M, bounds.L, bounds.m, bounds.T, bounds.r, bounds.R
    if variant in ("positive", "cor1"):
        window_ok = 0 < m < math.pi / (4 * T)
        c_lo, c_hi = M / (2 * T * L**2), 1.0 / (2 * T * M)
        if variant == "positive":
            base = [("cone", L * r / M, M * R / L, ">=", 0.0)]
            b1 = [("small_x", L * r / M, r, ">=", c_lo), ("large_x", R, M * R / L, "<=", c_hi)]
            b2 = [("small_x", L * r / M, r, "<=", c_hi), ("large_x", R, M * R / L, ">=", c_lo)]
        else:  # cor1: negative annulus, m > 0
            base = [("cone", -M * R / L, -L * r / M, "<=", 0.0)]
            b1 = [("small_x", -r, -L * r / M, "<=", c_lo), ("large_x", -M * R / L, -R, ">=", c_hi)]
            b2 = [("small_x", -r, -L * r / M, ">=", c_hi), ("large_x", -M * R / L, -R, "<=", c_lo)]
        return window_ok, base, b1, b2
    if variant in ("teo2", "cor2"):
        window_ok = -math.pi / (4 * T) < m < 0
        c_lo, c_hi = L / (2 * T * M**2), 1.0 / (2 * T * L)
        if variant == "teo2":
            base = [("cone", M * r / L, L * R / M, "<=", 0.0)]
            b1 = [("small_x", M * r / L, r, "<=", c_lo), ("large_x", R, L * R / M, ">=", c_hi)]
            b2 = [("small_x", M * r / L, r, ">=", c_hi), ("large_x", R, L * R / M, "<=", c_lo)]
        else:  # cor2: negative annulus, m < 0
            base = [("cone", -L * R / M, -M * r / L, ">=", 0.0)]
            b1 = [("small_x", -r, -M * r / L, ">=", c_lo), ("large_x", -L * R / M, -R, "<=", c_hi)]
            b2 = [("small_x", -r, -M * r / L, "<=", c_hi), ("large_x", -L * R / M, -R, ">=", c_lo)]
        return window_ok, base, b1, b2
    raise ValueError(f"unknown variant {variant!r}")


def sweep_annulus(f, params, r_values, R_values, cone, branch, sample_density):
    """(pair, report) of the first admissible (r, R) pair, else (None, least violated report).

    A lattice without any pair r < R is rejected before anything is sampled.
    """
    if not any(r < R for r in r_values for R in R_values):
        raise ValueError("need finite 0 < r < R")
    best = None
    for r in r_values:
        for R in R_values:
            if not r < R:
                continue
            bounds = ConeBounds(params.m, params.T, float(r), float(R))
            report = _check(f, bounds, cone, sample_density, branches=(1, 2) if branch is None else (branch,))
            if report.verdict == "holds_on_samples":
                return (float(r), float(R)), report
            if best is None or report.min_margin > best.min_margin:
                best = report
    return None, best
