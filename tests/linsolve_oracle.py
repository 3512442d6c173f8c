"""Per-row Simpson quadrature for the linear reflection problem, kept as a test oracle.

This was the library's solver before the prefix-sum form: for every
evaluation point t it builds its own composite Simpson rule on [-T, T],
split at s in {t, -t}, and weights it with Gbar(t, s) from the kernel's
direct branch formulas.  It costs O(n * n_quad) kernel and forcing
evaluations, but shares no code path with the prefix sums apart from
Kernel.gbar, which makes it a differential oracle for them.
"""

from __future__ import annotations

import numpy as np

from refleq.kernel import Kernel, ProblemParams
from refleq.linsolve import vectorized


def simpson_rule(a: float, b: float, n: int):
    """Nodes and weights of composite Simpson with n (even) subintervals."""
    x = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (b - a) / n / 3.0
    return x, w


def segments(T: float, t: float):
    """Split points of [-T, T] at the kernel's interior branch boundaries."""
    cuts = sorted({-T, T, *(p for p in (t, -t) if -T < p < T)})
    return list(zip(cuts[:-1], cuts[1:]))


def subintervals(n_quad: int, length: float, total: float) -> int:
    """Simpson subintervals the rule gives a segment: its share of n_quad, even, >= 8."""
    return max(8, 2 * round(n_quad * length / total / 2))


def build_rule(kernel: Kernel, t: float, n_quad: int):
    """Nodes s_j and products Gbar(t, s_j) * w_j for one evaluation point."""
    segs = segments(kernel.params.T, t)
    total = sum(b - a for a, b in segs)
    nodes_all, kw_all = [], []
    for a, b in segs:
        x, w = simpson_rule(a, b, subintervals(n_quad, b - a, total))
        kv = kernel.gbar(t, x)
        # endpoints landing on the jump diagonal take the one-sided limit
        # matching the segment's side, not the global convention
        left, right = kernel.gbar_diagonal_limits(t)
        if x[0] == t:
            kv = kv.copy()
            kv[0] = right
        if x[-1] == t:
            kv = kv.copy()
            kv[-1] = left
        nodes_all.append(x)
        kw_all.append(kv * w)
    return np.concatenate(nodes_all), np.concatenate(kw_all)


def per_row_solve(params: ProblemParams, eval_points, h, lam: float = 0.0, n_quad: int = 2000) -> np.ndarray:
    """u(t_i) = sum_j Gbar(t_i, s_j) w_j h(s_j) + lam * Gbar(t_i, -T), one rule per t_i."""
    kernel = Kernel(params)
    kernel.require_nonresonant()
    pts = np.atleast_1d(np.asarray(eval_points, dtype=float))
    hv = vectorized(h)
    out = np.empty(len(pts))
    for i, t in enumerate(pts):
        nodes, kw = build_rule(kernel, float(t), n_quad)
        out[i] = kw @ hv(nodes)
    # boundary-jump column Gbar(t, -T) = (cos(mt) - sin(mt)) / (2 sin(mT));
    # the closed form sidesteps the diagonal convention at t = -T, where
    # the representation needs the left limit
    m, T = params.m, params.T
    return out + lam * (np.cos(m * pts) - np.sin(m * pts)) / (2.0 * np.sin(m * T))
