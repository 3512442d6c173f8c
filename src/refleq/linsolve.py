"""Quadrature solver for x'(t) + m*x(-t) = h(t), x(-T) - x(T) = lambda.

The unique solution is represented against the reflection kernel:
u(t) = integral_{-T}^{T} Gbar(t,s) h(s) ds + lambda * Gbar(t,-T).
Because Gbar is separable on each branch, the integral is a few prefix
sums of Simpson's rule over cells with edges at s = +-t (jump and kink of
Gbar), which preserves the fourth-order accuracy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridMismatch, NonFinite, QuadratureFailure, RefleqError
from .kernel import ProblemParams, check_domain, check_lattice_size, check_real_scalar, gbar_separable, real_array

#: rows formatted per write by write_csv
CSV_BLOCK_ROWS = 4096


@dataclass
class ReflectionProblem:
    """Linear problem data: coefficients (m, T), forcing h, boundary jump lambda.

    h is a callable on [-T, T]; it may be vectorized over numpy arrays
    (scalar-only callables are wrapped on demand).  lam = 0 is the plain
    periodic condition x(T) = x(-T).
    """

    params: ProblemParams
    h: Callable
    lam: float = 0.0


@dataclass
class GridFunction:
    """Real values on the uniform grid t_i = -T + 2T*i/n, i = 0..n (n even)."""

    T: float
    values: np.ndarray

    def __post_init__(self):
        _check_half_length(self.T)
        self.values = real_array("values", self.values)
        if self.values.ndim != 1 or len(self.values) < 3 or len(self.values) % 2 == 0:
            raise ValueError("values must hold n+1 samples with n even")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    @property
    def n(self) -> int:
        return len(self.values) - 1

    def grid(self) -> np.ndarray:
        return np.linspace(-self.T, self.T, self.n + 1)

    @classmethod
    def from_callable(cls, f: Callable, T: float, n: int) -> "GridFunction":
        _check_half_length(T)
        _check_grid_size(n)
        return cls(T, vectorized(f)(np.linspace(-T, T, n + 1)))

    # CSV round-trip: header `t,value`, 17 significant digits (binary64 exact)
    def to_csv(self, fh) -> None:
        """Write the grid and the values as CSV to the open text file fh."""
        write_csv(fh, ["t", "value"], self.grid(), self.values)

    @classmethod
    def from_csv(cls, fh) -> "GridFunction":
        """Read a grid function written by to_csv from the open text file fh."""
        rows = list(csv.reader(fh))
        if not rows or rows[0] != ["t", "value"]:
            raise ValueError("expected header 't,value'")
        if len(rows) == 1 or any(len(r) != 2 for r in rows[1:]):
            raise ValueError("expected one or more rows of two fields t,value")
        t, v = (np.array([float(r[k]) for r in rows[1:]]) for k in (0, 1))
        g = cls(T=float(t[-1]), values=v)
        if not np.all(np.abs(t - g.grid()) <= 1e-12 * g.T):
            raise ValueError("t column is not the uniform grid on [-T, T]")
        return g


def write_csv(fh, header, *columns) -> None:
    """Write the header row, then row i of the raveled columns, each value to 17 significant digits.

    The columns must be one or more, real, named by the header and of one
    size (ValueError before anything is written).  Rows go to fh in blocks of
    CSV_BLOCK_ROWS, each formatted by one %-format string, so the text is
    never held whole; it is what csv.writer writes for format(v, ".17g").
    Within a block, a column with at most half as many distinct bit
    patterns as rows (a grid axis) formats each distinct value once and
    fills its %s slot with the strings; other columns keep a %.17g slot.
    """
    flat = [real_array("columns", c).ravel() for c in columns]
    if not flat:
        raise ValueError("write_csv needs at least one column")
    if len(header) != len(flat):
        raise ValueError(f"header names {len(header)} columns, got {len(flat)}")
    if len({c.size for c in flat}) > 1:
        raise ValueError(f"columns must have one size, got sizes {[c.size for c in flat]}")
    fh.write(",".join(header) + "\n")
    for start in range(0, flat[0].size, CSV_BLOCK_ROWS):
        block, slots = [], []
        for c in flat:
            bits = c[start : start + CSV_BLOCK_ROWS].view(np.int64)
            # sorted distinct bits: -0.0 and 0.0 stay apart; a sort is cheaper than np.unique
            keys = np.sort(bits)
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
            if 2 * keys.size <= bits.size:
                strings = np.array(["%.17g" % v for v in keys.view(float).tolist()], dtype=object)
                block.append(strings[np.searchsorted(keys, bits)])
                slots.append("%s")
            else:
                block.append(bits.view(float))
                slots.append("%.17g")
        row = ",".join(slots) + "\n"
        fh.write((row * len(bits)) % tuple(np.column_stack(block).ravel().tolist()))


def vectorized(f: Callable) -> Callable:
    """Wrap f so it maps broadcastable arrays elementwise to a float array.

    There is one native call; its result, if it broadcasts to the shape of
    the arguments (a constant included), is returned at that shape.  If f
    rejects arrays (TypeError, ValueError) or returns another shape, it is
    called once per element of the broadcast arguments instead.

    The layers call user functions through this wrapper, so it translates
    their failures (_raise_user_failure) and rejects a complex or
    non-numeric (string) result on either path (_float_result).
    """

    def call(*args):
        try:
            try:
                out = _float_result(f(*args))
                shape = np.broadcast(*args).shape
                return out if out.shape == shape else np.array(np.broadcast_to(out, shape))
            except (TypeError, ValueError):
                arrays = np.broadcast_arrays(*args)
                return _float_result(np.array(list(map(f, *(a.ravel() for a in arrays))))).reshape(arrays[0].shape)
        except Exception as exc:  # noqa: BLE001 - surfaced with context
            _raise_user_failure(exc)

    return call


def _raise_user_failure(exc: Exception):
    """Raise what a user function's exception becomes: a RefleqError or MemoryError itself, an OverflowError NonFinite, anything else QuadratureFailure."""
    if isinstance(exc, (RefleqError, MemoryError)):
        raise exc
    if isinstance(exc, OverflowError):
        raise NonFinite(f"forcing evaluation overflowed: {exc}") from exc
    raise QuadratureFailure(f"forcing evaluation failed: {exc}") from exc


def _float_result(raw, shape=None) -> np.ndarray:
    """A user function's result as a float array; QuadratureFailure, before any cast, unless its dtype is bool, int, float or object.

    An object result (np.frompyfunc's) is judged by its elements: re-typed from them, None as NaN, a string rejected, not parsed,
    also where other elements (Decimal) keep the re-typed result object.
    Given a state's shape (RK4's stages), ValueError unless the result has that shape or is 0-d (a constant).
    """
    if type(raw) is np.ndarray and raw.dtype == float and (shape is None or raw.shape == shape):  # as it is: no cast on RK4's path
        return raw
    values = np.asarray(raw)
    if values.dtype == object:
        values = np.asarray([np.nan if v is None else v for v in values.flat]).reshape(values.shape)
    if (kind := values.dtype.kind) not in "biufO" or kind == "O" and any(isinstance(v, (str, bytes)) for v in values.flat):
        raise QuadratureFailure(f"forcing evaluation returned {'complex' if kind == 'c' else 'non-numeric'} values")
    if shape is not None and values.ndim and values.shape != shape:
        raise ValueError(f"rhs returned shape {values.shape} for a state of shape {shape}")
    return values.astype(float, copy=False)


def _check_half_length(T: float) -> None:
    """Raise ValueError unless T, the grid's half-length, is a finite real scalar > 0."""
    if not (check_real_scalar("T", T) and T > 0):
        raise ValueError("T must be finite and > 0")
    if not check_real_scalar("2T", 2.0 * float(T)):
        raise ValueError("2T, the length of [-T, T], must be finite")


def _check_grid_size(n: int) -> None:
    """Raise ValueError, before anything is allocated, unless n is an even integer >= 2 within the lattice cap."""
    check_lattice_size("n", n, 1, minimum=-math.inf)  # the minimum is checked with the parity below
    if n < 2:
        raise ValueError("n must be even and >= 2")
    if n % 2:
        raise ValueError("n must be even")


def _check_cell_edges(n_quad: int, n_points: int) -> None:
    """Raise ValueError unless n_quad is an integer >= 8 and PeriodicGreenSolver's cell edges are within the lattice cap.

    Its arrays hold 3 values per node, two nodes per edge, and the edges are
    the n_quad + 1 uniform ones plus +-|t| for each of the n_points points.
    """
    check_lattice_size("n_quad", n_quad, 1, minimum=8)
    check_lattice_size("n_quad + 2*(evaluation points)", n_quad + 2 * n_points, 1)


class PeriodicGreenSolver:
    """Prefix-sum solver for a fixed set of evaluation points.

    Every branch of Gbar is a product A(t)*B(s) (see kernel.gbar_separable),
    so with z = t/T, a = alpha and running integrals C1, C2, C3 of h times
    the below, above and middle s-factors,
    u(t) = [ms(az)*(C1(-|t|) + C2(T) - C2(|t|) + lambda)
            + mid(z)*(C3(|t|) - C3(-|t|))] / (2 sin a),
    where lambda*ms(az)/(2 sin a) is the boundary term lambda*Gbar(t, -T).
    The C_k are prefix sums of Simpson's rule over cells: the uniform
    n_quad-cell grid on [-T, T] merged with {+-|t_i|}, so the jump at s = t
    and the kink at s = -t fall on cell edges and the rule stays fourth
    order.  The forcing enters only through its values at `nodes`, the cell
    edges and midpoints; everything else is computed once per
    evaluation-point set.
    """

    def __init__(self, params: ProblemParams, eval_points, n_quad: int = 2000):
        self.eval_points = np.atleast_1d(real_array("eval_points", eval_points))
        if self.eval_points.ndim != 1:
            raise ValueError(f"eval_points must be one-dimensional, got shape {self.eval_points.shape}")
        _check_cell_edges(n_quad, len(self.eval_points))
        check_domain(params, self.eval_points)
        T = params.T
        r = np.minimum(np.abs(self.eval_points), T)
        edges = np.unique(np.concatenate([np.linspace(-T, T, n_quad + 1), -r, r]))
        self._lo = np.searchsorted(edges, -r)
        self._hi = np.searchsorted(edges, r)
        self.nodes = np.empty(2 * len(edges) - 1)
        self.nodes[::2] = edges
        self.nodes[1::2] = 0.5 * (edges[:-1] + edges[1:])
        self._sixth_widths = np.diff(edges) / 6.0
        self._outer, self._mid, self._s_factors = gbar_separable(params.alpha, self.eval_points / T, self.nodes / T)

    def solve(self, h, lam: float = 0.0) -> np.ndarray:
        """u at eval_points for the forcing h: a callable, or its values at `nodes`; lam is a finite real scalar."""
        if not check_real_scalar("lam", lam):
            raise QuadratureFailure("lambda is not finite")
        hs = vectorized(h)(self.nodes) if callable(h) else real_array("forcing values", h)
        if hs.shape != self.nodes.shape:
            raise ValueError(f"forcing values must have the shape of nodes, {self.nodes.shape}")
        if not np.isfinite(hs).all():
            raise QuadratureFailure("forcing returned non-finite values")
        with np.errstate(over="ignore", invalid="ignore"):
            g = self._s_factors * hs
            cells = self._sixth_widths * (g[:, :-1:2] + 4.0 * g[:, 1::2] + g[:, 2::2])
            sums = np.empty((3, cells.shape[1] + 1))
            sums[:, 0] = 0.0
            np.cumsum(cells, axis=1, out=sums[:, 1:])
            below, above, mid = sums
            lo, hi = self._lo, self._hi
            u = self._outer * (below[lo] + above[-1] - above[hi] + lam) + self._mid * (mid[hi] - mid[lo])
        if not np.isfinite(u).all():
            raise QuadratureFailure("solution is not finite: the forcing or lambda overflows the quadrature")
        return u


def solve_grid(problem: ReflectionProblem, n: int = 200, n_quad: int = 2000) -> GridFunction:
    """Solution sampled on the uniform n-grid, returned as a GridFunction."""
    _check_grid_size(n)
    _check_cell_edges(n_quad, n + 1)
    t = np.linspace(-problem.params.T, problem.params.T, n + 1)
    return GridFunction(problem.params.T, PeriodicGreenSolver(problem.params, t, n_quad).solve(problem.h, problem.lam))


def residual(problem: ReflectionProblem, u: GridFunction) -> float:
    """Sup-norm defect of u in the equation plus the boundary defect.

    Interior: |u'(t_i) + m*u(-t_i) - h(t_i)| with centered differences.
    Boundary: |(u(-T) - u(T)) - lambda|.  Raises ValueError first if lambda
    is not a real scalar, and QuadratureFailure if it is not finite, if h
    fails or is not finite on the grid or if either defect overflows.
    """
    if not check_real_scalar("lam", problem.lam):
        raise QuadratureFailure("lambda is not finite")
    if abs(u.T - problem.params.T) > 1e-12 * problem.params.T:
        raise GridMismatch(f"grid half-length {u.T} != problem T {problem.params.T}")
    t = u.grid()
    v = u.values
    step = t[1] - t[0]
    h_int = vectorized(problem.h)(t[1:-1])
    if not np.all(np.isfinite(h_int)):
        raise QuadratureFailure("forcing returned non-finite values")
    refl = v[::-1]
    with np.errstate(over="ignore", invalid="ignore"):
        du = (v[2:] - v[:-2]) / (2.0 * step)
        interior = np.max(np.abs(du + problem.params.m * refl[1:-1] - h_int))
        boundary = abs((v[0] - v[-1]) - problem.lam)
    if not (math.isfinite(interior) and math.isfinite(boundary)):
        raise QuadratureFailure("residual is not finite: u, h, m or lambda overflows the difference quotient")
    return float(max(interior, boundary))
