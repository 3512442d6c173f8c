"""Sampling-based verification of cone fixed-point existence hypotheses.

For x'(t) = f(t, x(-t), x(t)) with periodic conditions, positive (or
negative) solutions exist when f + m*x satisfies sign and growth
inequalities expressed through the extrema M = sup Gbar, L = inf Gbar over
an annulus [r, R] of norms.  Everything here is a certificate over a finite
sample lattice: "holds on N samples with minimum margin d", never a proof.
The value of the checks is falsification plus evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadWindow, NonFinite
from .kernel import ProblemParams, check_lattice_size, kernel_bounds, require_nonresonant
from .linsolve import GridFunction, PeriodicGreenSolver, vectorized
from .monotone import SplineAt, reflected_forcing

#: t-grid size over which check_asymptotic_corollary takes the max of |f/x|
PROBE_T_POINTS = 41

#: lattice points per axis of the annulus checks, the sweep and `refleq exists`
SAMPLE_DENSITY = 21


@dataclass
class ConeBounds:
    """Finite annulus radii 0 < r < R for (m, T); the kernel extrema M, L follow from (m, T)."""

    m: float
    T: float
    r: float
    R: float
    M: float = field(init=False)
    L: float = field(init=False)

    def __post_init__(self):
        self.M, self.L, _, _ = kernel_bounds(ProblemParams(self.m, self.T))
        if not (0 < self.r < self.R and math.isfinite(self.R)):
            raise ValueError("need finite 0 < r < R")


@dataclass
class ExistenceReport:
    """Verdict of one hypothesis check plus the sampled evidence."""

    theorem: str
    branch: int | None
    verdict: str  # holds_on_samples | violated | condition_1 | condition_2 | inconclusive
    min_margin: float | None = None
    margins: dict = field(default_factory=dict)
    violation: tuple | None = None  # (t, x, y, inequality label)
    bounds: dict = field(default_factory=dict)
    samples: int = 0
    notes: list = field(default_factory=list)


def _sample_inequality(f, m, T, xlo, xhi, relation, coeff, density):
    """Min margin of `f(t,x,y) + m*x (rel) coeff*x` over a t-x-y lattice.

    relation '>=' gives margin lhs - rhs, '<=' gives rhs - lhs; admissible
    means margin >= 0 everywhere.  f gets the lattice as broadcast t, x, y
    axes, so a term in y alone is computed density times.  Returns (margin,
    (t, x, y) witness, sample count).  NaN samples decide nothing; the
    margin is inf and the witness None if no sample is below inf, and
    NonFinite is raised if every sample is NaN.
    """
    ts = np.linspace(-T, T, density)
    xs = np.linspace(xlo, xhi, density)
    x = xs[None, :, None]
    lhs = vectorized(f)(ts[:, None, None], x, xs[None, None, :]) + m * x
    rhs = coeff * x
    margin = (lhs - rhs if relation == ">=" else rhs - lhs).ravel()
    # C-order argmin keeps the first of equal margins, and lands on the first
    # NaN if there is one: only then are the NaN samples masked out
    k = int(margin.argmin())
    if np.isnan(margin[k]):
        nan = np.isnan(margin)
        if nan.all():
            raise NonFinite(f"f + m*x is NaN on every sample with x, y in [{xlo}, {xhi}]")
        k = int(np.argmin(np.where(nan, math.inf, margin)))
    if not margin[k] < math.inf:
        return math.inf, None, margin.size
    i, j, l = np.unravel_index(k, lhs.shape)
    return float(margin[k]), (float(ts[i]), float(xs[j]), float(xs[l])), margin.size


#: theorem checked for each (cone, m > 0)
_THEOREM_NAMES = {
    ("positive", True): "positive_solution_theorem",
    ("negative", True): "negative_solution_corollary_m_positive",
    ("positive", False): "positive_solution_theorem_m_negative",
    ("negative", False): "negative_solution_corollary_m_negative",
}

_FLIPPED = {">=": "<=", "<=": ">="}


def _constraint_systems(bounds: ConeBounds, cone: str):
    """Interval systems and growth coefficients of the theorem for the cone and the sign of m.

    Returns (window_check, base, branch1, branch2) where base and the
    branches are lists of (label, xlo, xhi, relation, coeff).  Only the
    positive theorem (0 < m < pi/(4T), positive annulus) is written out; the
    others follow by two symmetries, each of which flips every relation:
      - x -> -x (negative cone): each interval (xlo, xhi) becomes (-xhi, -xlo);
      - m -> -m (m < 0): Gbar changes sign, so M and L swap places and
        the window becomes 0 < -m < pi/(4T).
    Negation is exact and rounding symmetric about zero, so the derived
    bounds are bit for bit those of the systems written out per theorem.
    """
    if cone not in ("positive", "negative"):
        raise ValueError(f"unknown cone {cone!r}")
    M, L, m, T, r, R = bounds.M, bounds.L, bounds.m, bounds.T, bounds.r, bounds.R
    if m < 0:
        M, L, m = L, M, -m
    window_ok = 0 < m < math.pi / (4 * T)
    c_lo, c_hi = M / (2 * T * L**2), 1.0 / (2 * T * M)
    systems = [
        [("cone", L * r / M, M * R / L, ">=", 0.0)],
        [("small_x", L * r / M, r, ">=", c_lo), ("large_x", R, M * R / L, "<=", c_hi)],
        [("small_x", L * r / M, r, "<=", c_hi), ("large_x", R, M * R / L, ">=", c_lo)],
    ]
    if cone == "negative":
        systems = [[(lab, -hi, -lo, _FLIPPED[rel], c) for lab, lo, hi, rel, c in s] for s in systems]
    if bounds.m < 0:
        systems = [[(lab, lo, hi, _FLIPPED[rel], c) for lab, lo, hi, rel, c in s] for s in systems]
    return (window_ok, *systems)


def _check(f, bounds: ConeBounds, cone: str, density: int, branches=(1, 2), memo=None):
    """Check one annulus, sampling each (xlo, xhi, relation, coeff) constraint not yet in `memo`.

    A sweep shares one memo between its checks, so f, m, T and the density are fixed for it.
    """
    memo = {} if memo is None else memo
    if density < 2:
        raise ValueError("sample_density must be >= 2")
    check_lattice_size("sample_density", density, 3)
    window_ok, base, b1, b2 = _constraint_systems(bounds, cone)
    if not window_ok:
        raise BadWindow(f"m={bounds.m} outside the window 0 < |m| < pi/(4T)")
    ((_, *annulus),) = base
    if not (math.isfinite(annulus[0]) and math.isfinite(annulus[1])):
        raise ValueError("the sampled annulus [L*r/M, M*R/L] overflows")
    report = ExistenceReport(
        theorem=_THEOREM_NAMES[cone, bounds.m > 0],
        branch=None,
        verdict="violated",
        bounds=dict(vars(bounds)),
        notes=["sampling certificate, not a proof"],
    )

    def sample(*constraint):
        if constraint not in memo:
            memo[constraint] = _sample_inequality(f, bounds.m, bounds.T, *constraint, density)
        margin, point, n = memo[constraint]
        report.samples += n
        return margin, point

    cone_margin, point = sample(*annulus)
    report.margins["cone"] = cone_margin
    if cone_margin < 0:
        report.min_margin = cone_margin
        report.violation = (*point, "cone")
        return report
    # the first strict minimum over the sampled branch constraints, in b1 + b2
    # order, is the witness of a violation
    witness_margin, witness = math.inf, None
    for branch_id, constraints in ((1, b1), (2, b2)):
        if branch_id not in branches:
            continue
        worst = cone_margin
        for label, *constraint in constraints:
            margin, point = sample(*constraint)
            report.margins[f"branch{branch_id}_{label}"] = margin
            worst = min(worst, margin)
            if margin < witness_margin:
                witness_margin, witness = margin, (*point, label)
        if worst >= 0:
            report.branch = branch_id
            report.verdict = "holds_on_samples"
            report.min_margin = worst
            if worst == 0:
                report.notes.append("minimum margin is exactly zero (equality boundary)")
            return report
    report.min_margin = min(report.margins.values())
    report.violation = witness
    return report


def check_positive_existence(f, bounds: ConeBounds, sample_density: int = SAMPLE_DENSITY) -> ExistenceReport:
    """Check the positive-solution hypotheses for 0 < |m| < pi/(4T); the sign of m picks the theorem."""
    return _check(f, bounds, "positive", sample_density)


def check_negative_existence(f, bounds: ConeBounds, sample_density: int = SAMPLE_DENSITY) -> ExistenceReport:
    """Check the negative-solution hypotheses for 0 < |m| < pi/(4T); the sign of m picks the theorem."""
    return _check(f, bounds, "negative", sample_density)


def check_asymptotic_corollary(f, m: float, T: float, cone: str = "positive") -> ExistenceReport:
    """Classify the sub/superlinear limit pattern of f(t,x,y)/x along probes.

    Positive cone: probes x = y -> 0+ and -> +infinity; condition (1) means
    f/x -> +inf at 0 and -> 0 at infinity, condition (2) the reverse; either
    yields a positive solution for m in (0, pi/(4T)) and f >= 0 on the
    positive quadrant; any other m raises BadWindow.  The negative cone
    mirrors everything through x -> -x and uses the negativity window for
    |m| (that check accepts m by magnitude).  Uniformity in t is assessed
    by the maximum of |f/x| over a t-grid.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError("T must be finite and strictly positive")
    if cone not in ("positive", "negative"):
        raise ValueError("cone must be 'positive' or 'negative'")
    checked, name = (m, "m") if cone == "positive" else (abs(m), "|m|")
    if not 0 < checked < math.pi / (4 * T):
        raise BadWindow(f"{name}={checked} outside (0, pi/(4T))")
    require_nonresonant(ProblemParams(m, T))
    sgn = 1.0 if cone == "positive" else -1.0
    small = 10.0 ** np.arange(-1.0, -6.5, -0.5)
    large = 10.0 ** np.arange(1.0, 6.5, 0.5)
    ts = np.linspace(-T, T, PROBE_T_POINTS)

    # one f call: row i holds f(t, x, x) over the t-grid at the i-th probe, small probes first
    x = sgn * np.concatenate([small, large])[:, None]
    vals = vectorized(f)(ts, x, x)
    r_small, r_large = np.split(np.max(np.abs(vals / x), axis=1), [small.size])
    sign_witness = None
    negative = np.flatnonzero(np.any(vals < 0, axis=1))
    if negative.size:  # the last probe with a negative sample is the witness
        i = negative[-1]
        sign_witness = (float(ts[np.argmin(vals[i])]), x[i, 0], x[i, 0], "f>=0")

    def limit_class(probes, ratios, toward_zero):
        # slope of log|ratio| vs log|x|; ratio ~ |x|^p over the positive finite ratios
        mask = np.isfinite(ratios) & (ratios > 0)
        if mask.sum() < 2:
            return "zero" if np.all(ratios == 0) else "inconclusive"
        p = np.polyfit(np.log(probes[mask]), np.log(ratios[mask]), 1)[0]
        if abs(p) < 0.1:
            return "finite"
        if toward_zero:
            return "zero" if p > 0 else "infinity"
        return "infinity" if p > 0 else "zero"

    at_zero = limit_class(small, r_small, toward_zero=True)
    at_inf = limit_class(large, r_large, toward_zero=False)

    # condition (1) is branch 1, condition (2) branch 2
    branch = {("infinity", "zero"): 1, ("zero", "infinity"): 2}.get((at_zero, at_inf))
    notes = [
        "sampling certificate, not a proof",
        f"limit trend at 0: {at_zero}; at infinity: {at_inf}",
        "uniformity in t assessed by max over the sampled t-grid",
    ]
    if sign_witness is not None:
        branch = None
        notes.append("sign hypothesis f >= 0 violated on samples")
    elif branch is not None:
        notes.append(f"classified condition_{branch}")
    return ExistenceReport(
        theorem="asymptotic_corollary" if cone == "positive" else "asymptotic_corollary_mirrored",
        branch=branch,
        verdict="inconclusive" if branch is None else f"{cone}_solution",
        margins={
            "ratio_smallest_probe": float(r_small[-1]),
            "ratio_largest_probe": float(r_large[-1]),
        },
        violation=sign_witness,
        bounds={"m": m, "T": T},
        samples=PROBE_T_POINTS * (len(small) + len(large)),
        notes=notes,
    )


def fixed_point_operator(f, m: float, x: GridFunction, n_quad: int = 1024) -> GridFunction:
    """Apply (A x)(t) = integral Gbar(t,s) [f(s, x(-s), x(s)) + m x(-s)] ds on x's interval [-x.T, x.T].

    Fixed points of A solve the nonlinear periodic problem; the operator is
    also usable as a naive Picard iterator (no convergence guarantee).
    """
    grid = x.grid()
    solver = PeriodicGreenSolver(ProblemParams(m=m, T=x.T), grid, n_quad=n_quad)
    fv, xs = vectorized(f), SplineAt(grid, solver.nodes)(x.values)
    h = reflected_forcing(grid, solver.nodes, m, lambda s, y: fv(s, y, xs))
    return GridFunction(x.T, solver.solve(h(x.values)))


def sweep_annulus(
    f,
    params: ProblemParams,
    r_values=None,
    R_values=None,
    cone: str = "positive",
    branch: int | None = 2,
    sample_density: int = SAMPLE_DENSITY,
):
    """Scan a log-spaced (r, R) lattice of finite positive radii for the first admissible pair.

    Returns (pair, report): pair is (r, R) when some pair satisfies the
    hypotheses for the cone and the sign of m (and the branch, when given)
    with all margins >= 0, otherwise None together with the best (least
    negative margin) report.

    The branch inequalities on [L*r/M, r] depend on r alone and those on
    [R, M*R/L] on R alone, so the sweep samples each distinct inequality
    once and reuses its margin and witness for every pair that shares it;
    f must therefore be a pure function.  `samples` still counts every
    pair's lattice, as if each check had sampled its own.
    """
    if branch not in (None, 1, 2):
        raise ValueError("branch must be None, 1 or 2")
    if r_values is None:
        r_values = 10.0 ** np.arange(-4.0, 1.5, 0.5)
    if R_values is None:
        R_values = 10.0 ** np.arange(0.0, 5.5, 0.5)
    if not all(0 < v < math.inf for v in (*r_values, *R_values)) or not any(r < R for r in r_values for R in R_values):
        raise ValueError("need finite 0 < r < R")
    branches = (1, 2) if branch is None else (branch,)
    best, memo = None, {}
    for r in r_values:
        for R in R_values:
            if not r < R:
                continue
            pair = (float(r), float(R))
            report = _check(f, ConeBounds(params.m, params.T, *pair), cone, sample_density, branches, memo)
            if report.verdict == "holds_on_samples":
                return pair, report
            if best is None or report.min_margin > best.min_margin:
                best = report
    return None, best
