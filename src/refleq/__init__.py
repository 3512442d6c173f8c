"""Periodic first-order equations with reflection: x'(t) + m*x(-t) = h(t).

Closed-form kernels, sign classification, a quadrature solver, reductions
to ODE systems with spurious-solution filtering, monotone lower/upper
iteration, and sampling checks for cone existence hypotheses.
"""

from .errors import (
    BadWindow,
    GridMismatch,
    InternalInconsistency,
    MonotonicityBroken,
    NoConvergence,
    NonFinite,
    OutOfDomain,
    QuadratureFailure,
    RefleqError,
    ResonantKernel,
    SingularJacobian,
)
from .kernel import (
    Kernel,
    ProblemParams,
    Resonance,
    SignClass,
    SignReport,
    check_resonance,
    classify_sign,
    kernel_bounds,
)
from .linsolve import (
    GridFunction,
    PeriodicGreenSolver,
    ReflectionProblem,
    residual,
    solve,
    solve_grid,
)
from .reduce import (
    FilterVerdict,
    NonlinearProblem,
    SystemSolution,
    filter_reflection_solution,
    integrate_ivp,
    reduce_second_order,
    reduce_system,
    shoot_periodic,
)
from .monotone import (
    BracketOrdering,
    IterationReport,
    LowerUpperPair,
    check_lower,
    check_upper,
    iterate,
    one_sided_lipschitz_check,
)
from .cone import (
    ConeBounds,
    ExistenceReport,
    check_asymptotic_corollary,
    check_negative_existence,
    check_positive_existence,
    fixed_point_operator,
    sweep_annulus,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
