"""Closed-form kernels for the periodic problem x'(t) + m*x(-t) = h(t) on [-T, T].

Two kernels live here: the constant-coefficient second-order kernel G
(for x'' + m^2 x = f with periodic conditions) and the reflection kernel
Gbar built from it, which represents the unique periodic solution as
u(t) = integral of Gbar(t,s) h(s) ds.  Both are evaluated from explicit
piecewise trigonometric formulas, so evaluation is cheap, exact up to
rounding, and vectorizes over numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import BadWindow, InternalInconsistency, OutOfDomain, ResonantKernel

#: absolute tolerance on |alpha - k*pi| below which the problem is treated
#: as resonant (the closed form divides by sin(m*T))
RESONANCE_TOL = 1e-9

_PI4 = math.pi / 4.0

#: largest sample lattice a check allocates: grid**2 kernel points or density**3 cone samples
MAX_LATTICE_POINTS = 10**7


def check_lattice_size(name: str, side: int, dims: int, minimum: int = 1) -> None:
    """Raise ValueError, before anything is allocated, unless side is an int >= minimum and side**dims <= MAX_LATTICE_POINTS."""
    if not isinstance(side, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {side!r}")
    if side < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    if int(side) ** dims > MAX_LATTICE_POINTS:
        raise ValueError(f"{name}={side} asks for {side}**{dims} lattice points, above the cap of {MAX_LATTICE_POINTS}")


def check_real_scalar(name: str, x) -> bool:
    """Whether x is finite (an int beyond the double range is not); ValueError unless x is a Python or numpy int or float."""
    if not isinstance(x, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real scalar, got {type(x).__name__}")
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def real_array(name: str, x) -> np.ndarray:
    """x as a float array; ValueError naming it unless its dtype is bool, int or float (complex: the cast would drop it)."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got complex values")
    if x.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be real numbers, got dtype {x.dtype}")
    return x.astype(float, copy=False)


@dataclass(frozen=True)
class ProblemParams:
    """Coefficient m (nonzero) and half-length T > 0 of the interval [-T, T]."""

    m: float
    T: float

    def __post_init__(self):
        # & checks both types before the product is formed
        if not (check_real_scalar("m", self.m) & check_real_scalar("T", self.T) and check_real_scalar("m*T", self.m * self.T)):
            raise ValueError("m, T and m*T must be finite")
        if self.m == 0:
            raise ValueError("m must be nonzero")
        if not self.T > 0:
            raise ValueError("T must be strictly positive")
        if not check_real_scalar("2T", 2.0 * float(self.T)):
            raise ValueError("2T, the length of [-T, T], must be finite")

    @property
    def alpha(self) -> float:
        return self.m * self.T


@dataclass(frozen=True)
class Resonance:
    """Result of the eigenvalue check: resonant iff alpha is a multiple of pi; distance = |alpha - k*pi| to the nearest one."""

    resonant: bool
    k: int | None = None
    distance: float = math.nan


def check_resonance(params: ProblemParams) -> Resonance:
    """Resonant iff distance = |alpha - k*pi| <= RESONANCE_TOL for the nearest k, reported as |k| (None off resonance); never raises."""
    k = round(params.alpha / math.pi)
    distance = abs(params.alpha - k * math.pi)
    resonant = distance <= RESONANCE_TOL
    return Resonance(resonant, abs(k) if resonant else None, distance)


def require_nonresonant(params: ProblemParams) -> None:
    """Raise ResonantKernel where check_resonance says (m, T) is resonant: G and Gbar divide by sin(m*T)."""
    if (res := check_resonance(params)).resonant:
        raise ResonantKernel(params.m, params.T, res.k)


def check_domain(params: ProblemParams, *points) -> list[np.ndarray]:
    """The points as float arrays; raises ResonantKernel, then per point ValueError (complex) or OutOfDomain (not in [-T, T])."""
    require_nonresonant(params)
    T, arrays = params.T, []
    for p in points:
        arrays.append(real_array("points", p))
        if not np.all(np.abs(arrays[-1]) <= T * (1 + 1e-12)):
            raise OutOfDomain(f"point outside [-{T}, {T}] or not finite")
    return arrays


def spectrum(params: ProblemParams, k_max: int) -> np.ndarray:
    """Eigenvalues of x' + m*x(-t) with periodic conditions: m, then +-sqrt(m^2 - (k*pi/T)^2) for k = 1..k_max.

    With w = pi/T the operator is m on constants and [[m, kw], [-kw, -m]] on span{cos kwt, sin kwt};
    the pair is imaginary where |m| < kw.  A complex array of 2*k_max + 1 values, which
    check_lattice_size caps; k_max must be an integer >= 0.
    """
    check_lattice_size("k_max", k_max, 1, minimum=0)
    check_lattice_size("2*k_max + 1", 2 * k_max + 1, 1)
    m, kw = params.m, np.arange(1, k_max + 1) * (math.pi / params.T)
    # the modulus as a product of roots: (m - kw)(m + kw) itself overflows where the root does not
    modulus, real = np.sqrt(np.abs(m - kw)) * np.sqrt(np.abs(m + kw)), abs(m) > kw
    root = np.empty(k_max, complex)
    root.real, root.imag = np.where(real, modulus, 0.0), np.where(real, 0.0, modulus)
    return np.concatenate([[complex(m)], np.column_stack([root, -root]).ravel()])


def inverse_norm(params: ProblemParams) -> float:
    """L2 norm of (d/dt + m*R)^-1 with periodic conditions, T / dist(|alpha|, pi*N_0); inf where resonant.

    Each mode block of `spectrum` has singular values |m +- kw|, so the inverse's norm is one over
    their least, dist(|m|, w*N_0) = check_resonance's distance / T, so inf exactly where that says resonant.
    """
    res = check_resonance(params)
    return math.inf if res.resonant else params.T / res.distance


def _diagonal(a: float, z):
    """2*sin(a)*(Gbar(t, t-), Gbar(t, t+)) at z = t/T: cos(a(1 - 2|z|)) +- sin(a)."""
    base = np.cos(a * (1 - 2 * np.abs(z)))
    return base + math.sin(a), base - math.sin(a)


def gbar_separable(alpha: float, z, y):
    """Gbar's separable factors at z = t/T, y = s/T, as the prefix-sum solver stores them: (outer, mid, rows).

    With a = alpha, ps(x) = cos(x) + sin(x) and ms(x) = cos(x) - sin(x), off the jump diagonal 2*sin(a)*Gbar
    is ms(az)*ps(a(1 + y)) below (y < -|z|), ms(az)*ps(a(y - 1)) above (y > |z|, or y = -z > 0) and
    mid(z)*ps(ay) between (|y| < |z|, or y = -z < 0), with mid(z) = ps(a(1 - z)) if z >= 0, else ms(a(z + 1)).
    outer = ms(az) and mid come divided by 2 sin(a); rows stacks the below, above and middle y-factors.
    """
    a = alpha
    ps = lambda x: np.cos(x) + np.sin(x)  # noqa: E731
    ms = lambda x: np.cos(x) - np.sin(x)  # noqa: E731
    rows = np.stack([ps(a * (1 + y)), ps(a * (y - 1)), ps(a * y)])
    denom = 2.0 * math.sin(a)
    return ms(a * z) / denom, np.where(z >= 0, ps(a * (1 - z)), ms(a * (z + 1))) / denom, rows


class Kernel:
    """Lazy closed-form evaluator for G and Gbar.

    Pure and reentrant: no mutable state after construction, safe to share
    between threads.
    """

    def __init__(self, params: ProblemParams):
        self.params = params

    # -- second-order kernel G ----------------------------------------------

    def g(self, t, s):
        """G(t,s) = cos(m(T+s-t)) / (2m sin(mT)) for s <= t, reflected arg for s > t.

        Continuous across s = t, so no diagonal convention is needed.
        """
        m, T = self.params.m, self.params.T
        t, s = np.broadcast_arrays(*check_domain(self.params, t, s))
        arg = np.where(s <= t, T + s - t, T - s + t)
        out = np.cos(m * arg) / (2.0 * m * math.sin(m * T))
        return out if out.ndim else float(out)

    # -- reflection kernel Gbar ----------------------------------------------

    def _gbar_numerator(self, z, y):
        """2*sin(alpha)*Gbar at scaled coordinates z = t/T, y = s/T.

        Gbar(t, s) = m*G(t, -s) - dG/ds(t, s); for a = alpha and y != z that is
        cos(a(1 - |z + y|)) + sgn(z - y)*sin(a(1 - |z - y|)), continuous across
        the anti-diagonal.  The jump diagonal y == z takes the one-sided limit
        per the convention: from above for m > 0, from below for m < 0.
        """
        a = self.params.alpha
        below = y < z
        # (1 - y) - z and not 1 - |y + z|: the two round differently, and the tests pin the former's bits
        out = np.asarray(np.cos(a * np.where(y + z >= 0, (1 - y) - z, (1 + y) + z)))
        sin = np.sin(a * np.where(below, (1 + y) - z, (1 - y) + z))
        out += np.where(below, sin, -sin)
        diag = y == z
        out[diag] = _diagonal(a, z[diag])[int(self.params.m > 0)]
        return out

    def gbar(self, t, s):
        """Reflection kernel Gbar(t, s); diagonal filled by the convention."""
        T = self.params.T
        z, y = np.broadcast_arrays(*(p / T for p in check_domain(self.params, t, s)))
        out = self._gbar_numerator(z, y) / (2.0 * math.sin(self.params.alpha))
        return out if out.ndim else float(out)

    def gbar_diagonal_limits(self, t):
        """One-sided limits (Gbar(t, t-), Gbar(t, t+)) from the closed form.

        Their difference is exactly 1 (after division by 2 sin(alpha)).
        """
        a = self.params.alpha
        denom = 2.0 * math.sin(a)
        left, right = (d / denom for d in _diagonal(a, check_domain(self.params, t)[0] / self.params.T))
        if not np.ndim(left):
            return float(left), float(right)
        return left, right


class SignClass(str, Enum):
    STRICTLY_POSITIVE = "strictly_positive"
    STRICTLY_NEGATIVE = "strictly_negative"
    NONNEG_VANISHING_ON_P = "nonneg_vanishing_on_P"
    NONPOS_VANISHING_ON_P = "nonpos_vanishing_on_P"
    MIXED_SIGN = "mixed_sign"
    RESONANT = "resonant"


@dataclass
class SignReport:
    """Sign classification of Gbar on the closed square, with grid witnesses."""

    classification: SignClass
    alpha: float
    witnesses: list = field(default_factory=list)  # (t, s, value) triples
    vanishing_set: list | None = None


def sign_class(alpha: float) -> SignClass:
    """Sign class of Gbar at alpha = m*T off resonance, boundary within 1e-12; 0, NaN, +-inf are mixed."""
    if abs(abs(alpha) - _PI4) <= 1e-12:
        return SignClass.NONNEG_VANISHING_ON_P if alpha > 0 else SignClass.NONPOS_VANISHING_ON_P
    if 0 < alpha < _PI4:
        return SignClass.STRICTLY_POSITIVE
    if -_PI4 < alpha < 0:
        return SignClass.STRICTLY_NEGATIVE
    return SignClass.MIXED_SIGN


def classify_sign(params: ProblemParams, grid_n: int = 201) -> SignReport:
    """Sign classification of Gbar driven by alpha, verified on a grid.

    alpha in (0, pi/4): strictly positive; (-pi/4, 0): strictly negative;
    exactly +-pi/4: one-signed, vanishing precisely on the four points P;
    |alpha| > pi/4 non-resonant: takes both signs; resonant: undefined.
    Raises InternalInconsistency if the grid evidence contradicts the
    analytic classification (never expected).
    """
    check_lattice_size("grid_n", grid_n, 2, minimum=3)
    if check_resonance(params).resonant:
        return SignReport(SignClass.RESONANT, params.alpha)

    a, T = params.alpha, params.T
    expected = sign_class(a)
    kern = Kernel(params)
    u = np.linspace(-T, T, grid_n)
    vals = kern.gbar(u[:, None], u)  # row i is t = u[i], so flat index i is (u[i // grid_n], u[i % grid_n])
    wmin, wmax = ((float(u[i // grid_n]), float(u[i % grid_n]), float(vals.flat[i])) for i in (np.argmin(vals), np.argmax(vals)))

    if expected is SignClass.MIXED_SIGN:
        if not (wmin[2] < 0 < wmax[2]):
            raise InternalInconsistency(f"expected both signs on grid, got min {wmin}, max {wmax}")
        return SignReport(expected, a, witnesses=[wmax, wmin])
    P, side = None, vals
    if expected in (SignClass.NONNEG_VANISHING_ON_P, SignClass.NONPOS_VANISHING_ON_P):
        P = [(-T, -T), (0.0, 0.0), (T, T), (T, -T) if params.m > 0 else (-T, T)]  # where Gbar vanishes
        pvals = kern.gbar(*np.transpose(P))
        if np.max(np.abs(pvals)) > 1e-10:
            raise InternalInconsistency(f"Gbar does not vanish on P: {pvals.tolist()}")
        # P by flat index: both diagonal corners, the off-diagonal one and, if grid_n is odd, the origin
        corner = (grid_n - 1) * grid_n if params.m > 0 else grid_n - 1
        side = np.delete(vals, [0, vals.size - 1, corner, vals.size // 2][: 3 + grid_n % 2])
    positive = expected in (SignClass.STRICTLY_POSITIVE, SignClass.NONNEG_VANISHING_ON_P)
    if not (np.all(side > 0) if positive else np.all(side < 0)):
        raise InternalInconsistency(f"expected {expected.value} off the vanishing set, grid min {wmin}, max {wmax}")
    return SignReport(expected, a, witnesses=[wmin, wmax], vanishing_set=P)


def kernel_bounds(params: ProblemParams):
    """(M, L, argmax, argmin): sup and inf of Gbar over the closed square.

    Closed form on the sign window 0 < |alpha| <= pi/4; BadWindow outside it
    (the resonance check comes first).  For 0 < a = alpha <= pi/4, with
    z = t/T and y = s/T, Gbar = m*G(t, -s) - dG/ds(t, s) off the diagonal is
      2*sin(a)*Gbar = cos(u) + sgn(z - y)*sin(v),
      u = a(1 - |z + y|),  v = a(1 - |z - y|),
    where |u| <= a and v lies in [-a, a).  cos falls with |u|
    and sin rises on [-a, a], so every value lies in
    [cos(a) - sin(a), 1 + sin(a)], and so do the diagonal limits
    cos(a(1 - 2|z|)) +- sin(a).  The upper end is only the limit s -> t- at
    |z| = 1/2; the lower end is attained at the corners (-T, -T), the
    stored diagonal value, and (T, -T).  For alpha < 0,
    Gbar_alpha(t, s) = -Gbar_{-alpha}(-t, -s) negates both and swaps them.
    """
    require_nonresonant(params)
    a, T = params.alpha, params.T
    if abs(a) > _PI4:
        raise BadWindow(f"alpha=m*T={a} outside the sign window 0 < |alpha| <= pi/4")
    s = math.sin(abs(a))
    sup, inf = (1 + s) / (2 * s), (math.cos(a) - s) / (2 * s)
    if a > 0:
        return sup, inf, (-T / 2, -T / 2), (-T, -T)
    return -inf, -sup, (-T, -T), (-T / 2, -T / 2)
