"""The four-branch Gbar evaluator and factor table, kept as test oracles.

`gbar` and `gbar_diagonal_limits` were the library's `Kernel._gbar_numerator`
and `Kernel.gbar_diagonal_limits` before Gbar was evaluated from its two-case
closed form: each of the four branches of `gbar_factors` was filled through
its own mask, and the jump-diagonal formula was written twice.  `gbar_factors`
was the library's table of separable branches, from which
`PeriodicGreenSolver` built its rule as `solver_factors` does, before
`kernel.gbar_separable` returned that rule itself.  Property tests check that
the library returns the same bytes.
"""

from __future__ import annotations

import math

import numpy as np

from refleq.kernel import Kernel


def _ps(x):
    return np.cos(x) + np.sin(x)


def _ms(x):
    return np.cos(x) - np.sin(x)


def gbar_factors(alpha: float):
    """Separable branches of 2*sin(alpha)*Gbar as (A, B) pairs: A(z)*B(y).

    z = t/T and y = s/T.  In order, the branches cover
    -z <= y < z (middle, t > 0), y > |z| (above), y < -|z| (below) and
    |y| < -z (middle, t < 0), with the anti-diagonal served by the first two.
    """
    a = alpha
    return (
        (lambda z: _ps(a * (1 - z)), lambda y: _ps(a * y)),
        (lambda z: _ms(a * z), lambda y: _ps(a * (y - 1))),
        (lambda z: _ms(a * z), lambda y: _ps(a * (1 + y))),
        (lambda z: _ms(a * (z + 1)), lambda y: _ps(a * y)),
    )


def solver_factors(alpha: float, z, y):
    """(outer, mid, rows) as PeriodicGreenSolver built them from gbar_factors at z = t/T, y = s/T."""
    mid_pos, above, below, mid_neg = gbar_factors(alpha)
    rows = np.stack([below[1](y), above[1](y), mid_pos[1](y)])
    denom = 2.0 * math.sin(alpha)
    outer = above[0](z) / denom  # ms(az): the below and above branches share it
    mid = np.where(z >= 0, mid_pos[0](z), mid_neg[0](z)) / denom
    return outer, mid, rows


def _branch_masks(z, y):
    """Mask of the jump diagonal y == z, and of the four branches in the order of gbar_factors."""
    diag = y == z
    return diag, (
        ~diag & (-z <= y) & (y < z),
        ~diag & (-y <= z) & (z < y),
        ~diag & (y < -np.abs(z)),
        ~diag & (z < -np.abs(y)),
    )


def _gbar_numerator(kernel: Kernel, z, y):
    """2*sin(alpha)*Gbar at scaled coordinates z = t/T, y = s/T.

    Four analytic branches partition |y| != |z|; the anti-diagonal
    y = -z is a removable branch boundary (the adjacent formulas agree),
    here served by the '-z <= y < z' and '-y <= z < y' branches.  The
    jump diagonal y == z takes the one-sided limit per the convention.
    """
    a = kernel.params.alpha
    out = np.empty(z.shape)
    diag, (c1, c2, c3, c4) = _branch_masks(z, y)
    out[c1] = np.cos(a * (1 - y[c1] - z[c1])) + np.sin(a * (1 + y[c1] - z[c1]))
    out[c2] = np.cos(a * (1 - y[c2] - z[c2])) - np.sin(a * (1 - y[c2] + z[c2]))
    out[c3] = np.cos(a * (1 + y[c3] + z[c3])) + np.sin(a * (1 + y[c3] - z[c3]))
    out[c4] = np.cos(a * (1 + y[c4] + z[c4])) - np.sin(a * (1 - y[c4] + z[c4]))
    sgn = 1.0 if kernel.params.m > 0 else -1.0
    out[diag] = np.cos(a * (1 - 2 * np.abs(z[diag]))) - sgn * math.sin(a)
    return out


def gbar(kernel: Kernel, t, s):
    """Reflection kernel Gbar(t, s); diagonal filled by the convention."""
    kernel.require_nonresonant()
    kernel._check_domain(t, s)
    T = kernel.params.T
    z, y = np.broadcast_arrays(np.asarray(t, float) / T, np.asarray(s, float) / T)
    out = _gbar_numerator(kernel, z, y) / (2.0 * math.sin(kernel.params.alpha))
    return out if out.ndim else float(out)


def gbar_diagonal_limits(kernel: Kernel, t):
    """One-sided limits (Gbar(t, t-), Gbar(t, t+)) from the closed form."""
    kernel.require_nonresonant()
    kernel._check_domain(t)
    a = kernel.params.alpha
    z = np.asarray(t, float) / kernel.params.T
    base = np.cos(a * (1 - 2 * np.abs(z)))
    denom = 2.0 * math.sin(a)
    left = (base + math.sin(a)) / denom
    right = (base - math.sin(a)) / denom
    if not np.ndim(left):
        return float(left), float(right)
    return left, right
