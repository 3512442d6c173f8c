"""Periodic first-order equations with reflection: x'(t) + m*x(-t) = h(t).

Closed-form kernels, sign classification, a quadrature solver, reductions
to ODE systems with spurious-solution filtering, monotone lower/upper
iteration, and sampling checks for cone existence hypotheses.
"""

from .kernel import ProblemParams
from .linsolve import ReflectionProblem, residual, solve_grid

__version__ = "1.0.0"

__all__ = ["ProblemParams", "ReflectionProblem", "residual", "solve_grid"]
