"""The branch-per-class `classify_sign`, kept as a test oracle.

This was the library's `classify_sign` before the four one-signed classes
shared one sign check: each class had its own branch, and the vanishing
set came from `_corner_set`.  A differential test checks that the shared
check returns the same report.
"""

from __future__ import annotations

import numpy as np

from refleq.errors import InternalInconsistency
from refleq.kernel import Kernel, ProblemParams, SignClass, SignReport, check_lattice_size, check_resonance, sign_class


def _corner_set(T: float, m: float):
    # the four points where Gbar vanishes at |alpha| = pi/4; the off-diagonal
    # corner mirrors through (t,s) -> (-t,-s) when m flips sign
    corner = (T, -T) if m > 0 else (-T, T)
    return [(-T, -T), (0.0, 0.0), (T, T), corner]


def classify_sign(params: ProblemParams, grid_n: int = 201) -> SignReport:
    """Sign classification of Gbar driven by alpha, verified on a grid.

    alpha in (0, pi/4): strictly positive; (-pi/4, 0): strictly negative;
    exactly +-pi/4: one-signed, vanishing precisely on the four points P;
    |alpha| > pi/4 non-resonant: takes both signs; resonant: undefined.
    Raises InternalInconsistency if the grid evidence contradicts the
    analytic classification (never expected).
    """
    if grid_n < 3:
        raise ValueError("grid_n must be >= 3")
    check_lattice_size("grid_n", grid_n, 2)
    if check_resonance(params).resonant:
        return SignReport(SignClass.RESONANT, params.alpha)

    a, T = params.alpha, params.T
    expected = sign_class(a)
    kern = Kernel(params)
    u = np.linspace(-T, T, grid_n)
    tt, ss = np.meshgrid(u, u, indexing="ij")
    vals = kern.gbar(tt, ss)
    imin = np.unravel_index(np.argmin(vals), vals.shape)
    imax = np.unravel_index(np.argmax(vals), vals.shape)
    wmin = (float(tt[imin]), float(ss[imin]), float(vals[imin]))
    wmax = (float(tt[imax]), float(ss[imax]), float(vals[imax]))

    if expected is SignClass.STRICTLY_POSITIVE:
        if not wmin[2] > 0:
            raise InternalInconsistency(f"expected strictly positive, grid min {wmin}")
        return SignReport(expected, a, witnesses=[wmin, wmax])
    if expected is SignClass.STRICTLY_NEGATIVE:
        if not wmax[2] < 0:
            raise InternalInconsistency(f"expected strictly negative, grid max {wmax}")
        return SignReport(expected, a, witnesses=[wmin, wmax])
    if expected in (SignClass.NONNEG_VANISHING_ON_P, SignClass.NONPOS_VANISHING_ON_P):
        P = _corner_set(T, params.m)
        pvals = [kern.gbar(p[0], p[1]) for p in P]
        if max(abs(v) for v in pvals) > 1e-10:
            raise InternalInconsistency(f"Gbar does not vanish on P: {pvals}")
        # mask the vanishing points out and check the strict sign elsewhere
        off = np.ones_like(vals, dtype=bool)
        for p in P:
            off &= ~(np.isclose(tt, p[0]) & np.isclose(ss, p[1]))
        side = vals[off]
        ok = np.all(side > 0) if expected is SignClass.NONNEG_VANISHING_ON_P else np.all(side < 0)
        if not ok:
            raise InternalInconsistency("sign off the vanishing set contradicts classification")
        return SignReport(expected, a, witnesses=[wmin, wmax], vanishing_set=P)
    # mixed sign
    if not (wmin[2] < 0 < wmax[2]):
        raise InternalInconsistency(f"expected both signs on grid, got min {wmin}, max {wmax}")
    return SignReport(SignClass.MIXED_SIGN, a, witnesses=[wmax, wmin])
