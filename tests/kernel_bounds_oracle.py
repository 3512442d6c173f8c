"""The refined grid search for the extrema of Gbar, kept as a test oracle.

This was the library's `kernel_bounds` before it returned the extrema in
closed form.  It samples Gbar on a grid_n x grid_n grid together with both
one-sided diagonal limits, then refines around each extremizer.  Its M can
only under-estimate sup Gbar and its L only over-estimate inf Gbar, so a
differential test against it checks the closed form from the inside.
"""

from __future__ import annotations

import numpy as np

from refleq.kernel import Kernel, ProblemParams, require_nonresonant


def _gbar_samples_with_limits(kern: Kernel, tvals: np.ndarray, svals: np.ndarray):
    """Stacked (t, s, value) candidates over tvals x svals.

    Adds both one-sided diagonal limits for every t in tvals: the supremum
    and infimum of Gbar over the closed square are approached there, on
    whichever side the convention discards.
    """
    tt, ss = np.meshgrid(tvals, svals, indexing="ij")
    vals = kern.gbar(tt, ss)
    left, right = kern.gbar_diagonal_limits(tvals)
    left = np.atleast_1d(left)
    right = np.atleast_1d(right)
    cand_t = np.concatenate([tt.ravel(), tvals, tvals])
    cand_s = np.concatenate([ss.ravel(), tvals, tvals])
    cand_v = np.concatenate([vals.ravel(), left, right])
    return cand_t, cand_s, cand_v


def kernel_bounds(params: ProblemParams, grid_n: int = 201, refine_iters: int = 2):
    """(M, L, argmax, argmin): extrema of Gbar over the closed square.

    Grid search over grid_n x grid_n (both one-sided diagonal values
    included), then refine_iters rounds of local subdivision around each
    extremizer.  M is the supremum estimate, L the infimum estimate.
    """
    if grid_n < 3:
        raise ValueError("grid_n must be >= 3")
    kern = Kernel(params)
    require_nonresonant(params)
    T = params.T
    u = np.linspace(-T, T, grid_n)
    ct, cs, cv = _gbar_samples_with_limits(kern, u, u)
    step = 2 * T / (grid_n - 1)

    def refine(idx, pick):
        t0, s0 = ct[idx], cs[idx]
        best = (cv[idx], t0, s0)
        h = 2 * step
        for _ in range(refine_iters):
            tv = np.clip(np.linspace(best[1] - h, best[1] + h, 41), -T, T)
            sv = np.clip(np.linspace(best[2] - h, best[2] + h, 41), -T, T)
            rt, rs, rv = _gbar_samples_with_limits(kern, np.unique(tv), np.unique(sv))
            j = pick(rv)
            cand = (rv[j], rt[j], rs[j])
            if pick is np.argmax:
                best = max(best, cand)
            else:
                best = min(best, cand)
            h /= 10.0
        return best

    vmax, tmax, smax = refine(int(np.argmax(cv)), np.argmax)
    vmin, tmin, smin = refine(int(np.argmin(cv)), np.argmin)
    return float(vmax), float(vmin), (float(tmax), float(smax)), (float(tmin), float(smin))
