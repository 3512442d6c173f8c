"""The monotone sweep before it took its checks from one difference each, kept as a test oracle.

`iterate` is the library's `monotone.iterate` as it was when each check,
step and gap computed its own differences: new - previous and
previous - new twice over, each tested with np.any or reduced with
np.max(np.abs(...)).  The loop is kept as it was, with one line added that
records max(step_desc, step_asc) per sweep, so a differential test can
compare the library's `step_history` too.  It uses the library's solver,
forcing and report classes, so a difference in the result is a difference
in the sweep's bookkeeping alone.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from refleq.errors import MonotonicityBroken
from refleq.kernel import ProblemParams
from refleq.linsolve import GridFunction, PeriodicGreenSolver, ReflectionProblem, residual, vectorized
from refleq.monotone import (
    MONOTONE_SLACK,
    BracketOrdering,
    IterationReport,
    LowerUpperPair,
    _require_window,
    reflected_forcing,
)


def iterate(
    f: Callable,
    bracket: LowerUpperPair,
    m: float,
    n_quad: int = 1024,
    max_iters: int = 60,
    tol: float = 1e-8,
) -> IterationReport:
    """Run the two monotone sequences from the bracket endpoints."""
    if not tol >= 0:
        raise ValueError("tol must be >= 0")
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    T = bracket.lower.T
    _require_window(m, T)
    params = ProblemParams(m=m, T=T)

    grid = bracket.lower.grid()
    solver = PeriodicGreenSolver(params, grid, n_quad=n_quad)
    rhs = vectorized(f)
    forcing = reflected_forcing(grid, solver.nodes, m, rhs)

    lower_seq, upper_seq = [bracket.lower.values.copy()], [bracket.upper.values.copy()]
    # the descending sequence starts at the larger endpoint, the ascending at the smaller
    above = bracket.ordering is BracketOrdering.LOWER_ABOVE_UPPER
    desc_seq, asc_seq = (lower_seq, upper_seq) if above else (upper_seq, lower_seq)
    gap_history = [float(np.max(np.abs(desc_seq[0] - asc_seq[0])))]
    step_history = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        new_desc = solver.solve(forcing(desc_seq[-1]))
        new_asc = solver.solve(forcing(asc_seq[-1]))
        if np.any(new_desc - desc_seq[-1] > MONOTONE_SLACK):
            raise MonotonicityBroken("descending sequence increased beyond slack")
        if np.any(asc_seq[-1] - new_asc > MONOTONE_SLACK):
            raise MonotonicityBroken("ascending sequence decreased beyond slack")
        if np.any(new_asc - new_desc > MONOTONE_SLACK):
            raise MonotonicityBroken("sequences crossed beyond slack")
        if np.any(new_desc - desc_seq[0] > MONOTONE_SLACK) or np.any(asc_seq[0] - new_asc > MONOTONE_SLACK):
            raise MonotonicityBroken("iterate left the initial bracket")
        step_desc = float(np.max(np.abs(new_desc - desc_seq[-1])))
        step_asc = float(np.max(np.abs(new_asc - asc_seq[-1])))
        step_history.append(max(step_desc, step_asc))  # the one added line
        desc_seq.append(new_desc)
        asc_seq.append(new_asc)
        gap_history.append(float(np.max(np.abs(new_desc - new_asc))))
        if max(step_desc, step_asc) <= tol:
            converged = True
            break

    iterates_lower = [GridFunction(T, v) for v in lower_seq]
    iterates_upper = [GridFunction(T, v) for v in upper_seq]

    def nonlinear_residual(u: GridFunction) -> float:
        return residual(ReflectionProblem(params, lambda s: reflected_forcing(grid, s, m, rhs)(u.values)), u)

    return IterationReport(
        iterates_lower=iterates_lower,
        iterates_upper=iterates_upper,
        converged=converged,
        iterations=iterations,
        final_gap=gap_history[-1],
        gap_history=gap_history,
        step_history=step_history,
        residual_lower=nonlinear_residual(iterates_lower[-1]),
        residual_upper=nonlinear_residual(iterates_upper[-1]),
        m_used=m,
    )
