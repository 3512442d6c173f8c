import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, mutually_broadcastable_shapes
import csv_oracle
import vectorized_oracle
from linsolve_oracle import per_row_solve, segments, subintervals

from refleq.errors import GridMismatch, OutOfDomain, QuadratureFailure, ResonantKernel
from refleq.kernel import Kernel, ProblemParams, check_resonance
from refleq.linsolve import (
    CSV_BLOCK_ROWS,
    GridFunction,
    PeriodicGreenSolver,
    ReflectionProblem,
    residual,
    solve_grid,
    vectorized,
    write_csv,
)
from refleq.monotone import reflected_forcing


def csv_text(header, *columns) -> str:
    """What write_csv writes, as one string."""
    buf = io.StringIO()
    write_csv(buf, header, *columns)
    return buf.getvalue()


def gridfunction_csv(g: GridFunction) -> str:
    buf = io.StringIO()
    g.to_csv(buf)
    return buf.getvalue()


def test_gridfunction_roundtrip_csv():
    g = GridFunction.from_callable(np.cos, 1.0, 10)
    text = gridfunction_csv(g)
    back = GridFunction.from_csv(io.StringIO(text))
    assert back.T == g.T
    assert np.array_equal(back.values, g.values)
    # 17 significant digits make the round trip bit-exact
    assert gridfunction_csv(back) == text


@pytest.mark.parametrize(
    "t",
    [
        (-1.0, 0.9, 1.0),
        (-1.0, 0.0, 1.0 + 1e-9),
        (1.0, 0.0, -1.0),
        (0.0, 0.0, 0.0),
        # malformed files, given as their text
        pytest.param("", id="empty"),
        pytest.param("t,value\n", id="header_only"),
        pytest.param("t,value\n-1.0,1.0\n0.0\n1.0,1.0\n", id="one_field_row"),
    ],
)
def test_gridfunction_csv_rejects_off_grid_t(t):
    text = t if isinstance(t, str) else "t,value\n" + "".join(f"{ti!r},1.0\n" for ti in t)
    with pytest.raises(ValueError):
        GridFunction.from_csv(io.StringIO(text))


def test_gridfunction_validation():
    with pytest.raises(ValueError):
        GridFunction(1.0, np.zeros(4))  # n odd


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gridfunction_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        GridFunction(1.0, [0.0, bad, 0.0])
    text = f"t,value\n-1.0,0.0\n0.0,{bad}\n1.0,0.0\n"
    with pytest.raises(ValueError, match="finite"):
        GridFunction.from_csv(io.StringIO(text))


@pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -1.0])
def test_gridfunction_rejects_bad_T(T):
    with pytest.raises(ValueError, match="T must be finite and > 0"):
        GridFunction(T, [0.0, 0.0, 0.0])


def test_vectorized_wraps_scalar_only():
    f = vectorized(lambda x: 1.0)
    out = f(np.linspace(0, 1, 5))
    assert out.shape == (5,)
    assert np.all(out == 1.0)
    g = vectorized(math.sin)
    assert np.allclose(g(np.array([0.0, 1.0])), [0.0, math.sin(1.0)])


#: per arity: a numpy-native f (one ignores an argument, so its result has
#: a smaller shape than the arguments), a scalar-only f and a constant f
VECTORIZE_CASES = {
    1: [lambda t: t * t - 3.0 * t, lambda t: math.sin(t) if t > 0 else t, lambda t: 1.5],
    2: [lambda t, y: 2.0 * y, lambda t, y: max(t, y) * math.cos(y), lambda t, y: -0.25],
    3: [lambda t, x, y: t * x - np.abs(y), lambda t, x, y: math.hypot(x, y) - t, lambda t, x, y: 7.0],
}


@settings(max_examples=60)
@given(data=st.data(), arity=st.sampled_from([1, 2, 3]), kind=st.sampled_from([0, 1, 2]))
def test_vectorized_matches_elementwise_loop(data, arity, kind):
    shapes = data.draw(mutually_broadcastable_shapes(num_shapes=arity, max_dims=3, max_side=4))
    elements = st.floats(-10.0, 10.0, allow_subnormal=False)
    args = [data.draw(arrays(np.float64, shape, elements=elements)) for shape in shapes.input_shapes]
    f = VECTORIZE_CASES[arity][kind]
    out = vectorized(f)(*args)
    cols = [b.ravel().tolist() for b in np.broadcast_arrays(*args)]
    expected = np.array([f(*p) for p in zip(*cols)], dtype=float).reshape(shapes.result_shape)
    assert out.shape == shapes.result_shape
    assert out.tobytes() == expected.tobytes()


def _raising(exc):
    def f(*args):
        raise exc

    return f


def _scalars_only(*args):
    if not all(isinstance(a, (int, float)) for a in args):
        raise TypeError("scalars only")
    return math.fsum(args)


#: f for the oracle comparison: elementwise, its first argument back, a
#: constant, a result of the wrong shape, one that rejects arrays, and
#: three failures (a RefleqError passes vectorized unchanged)
ORACLE_CASES = {
    "elementwise": lambda *a: sum(np.multiply(k + 1.0, x) for k, x in enumerate(a)),
    "first argument": lambda *a: a[0],
    "constant": lambda *a: 2.5,
    "wrong shape": lambda *a: np.zeros(7),
    "rejects arrays": _scalars_only,
    "OverflowError": _raising(OverflowError("math range error")),
    "RuntimeError": _raising(RuntimeError("no value here")),
    "RefleqError": _raising(QuadratureFailure("already translated")),
}


@st.composite
def _broadcastable_args(draw):
    """One to three arguments of one broadcast shape: arrays of it, arrays that
    broadcast to it, Python scalars, 0-d arrays and nested lists."""
    shape = draw(st.sampled_from([(), (3,), (2, 3), (1, 3), (2, 1)]))
    elements = st.floats(-10.0, 10.0, allow_subnormal=False)
    args = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["same shape", "broadcasts", "scalar", "0-d", "list"]))
        if kind == "scalar":
            args.append(draw(st.one_of(elements, st.integers(-5, 5))))
        elif kind == "0-d":
            args.append(np.array(draw(elements)))
        else:
            sub = shape
            if kind == "broadcasts":
                sub = shape[draw(st.integers(0, len(shape))) :]
                sub = tuple(draw(st.sampled_from([1, n])) for n in sub)
            arg = draw(arrays(np.float64, sub, elements=elements))
            args.append(arg.tolist() if kind == "list" else arg)
    return args


def _outcome(call, *args):
    try:
        out = call(*args)
    except Exception as exc:  # noqa: BLE001 - compared by class and message
        return type(exc), str(exc)
    return type(out), out.dtype, out.shape, out.tobytes()


# The draws are broadcastable argument sets only, since every caller in the
# library passes such: on arguments that do not broadcast the oracle raises
# numpy's ValueError before calling f, and vectorized calls f first.
@pytest.mark.parametrize("name", ORACLE_CASES)
@settings(max_examples=60)
@given(args=_broadcastable_args())
def test_vectorized_matches_the_broadcast_first_oracle(name, args):
    f = ORACLE_CASES[name]
    assert _outcome(vectorized(f), *args) == _outcome(vectorized_oracle.vectorized(f), *args)


def test_constant_forcing_gives_constant_solution():
    # x = h0/m solves x' + m x(-t) = h0
    for m, T in [(0.3, 1.0), (-0.3, 1.0), (0.7, 1.0), (1.5, 1.0), (0.5, 2.0)]:
        p = ProblemParams(m, T)
        t = np.linspace(-T, T, 11)
        vals = PeriodicGreenSolver(p, t).solve(lambda s: 1.0)
        assert np.max(np.abs(vals - 1.0 / m)) <= 1e-8


def test_manufactured_cos_solution():
    # u = cos solves u' + m u(-t) = -sin t + m cos t
    m, T = 1.0, 1.0
    h = lambda t: np.cos(t) - np.sin(t)
    u = solve_grid(ReflectionProblem(ProblemParams(m, T), h), n=200)
    assert np.max(np.abs(u.values - np.cos(u.grid()))) <= 1e-6


def test_homogeneous_with_boundary_jump():
    m, T, x0 = 0.5, 1.0, 0.7
    t = np.linspace(-T, T, 21)
    exact = x0 * (np.cos(m * t) - np.sin(m * t))  # solves x' + m*x(-t) = 0, x(0) = x0
    lam = exact[0] - exact[-1]
    vals = PeriodicGreenSolver(ProblemParams(m, T), t).solve(lambda s: 0.0, lam)
    assert np.max(np.abs(vals - exact)) <= 1e-12


def test_quadrature_convergence_order():
    m, T = 1.0, 1.0
    h = lambda t: np.cos(t) - np.sin(t)
    pts = np.linspace(-T, T, 21)
    errs = []
    for nq in (50, 100, 200):
        u = PeriodicGreenSolver(ProblemParams(m, T), pts, nq).solve(h)
        errs.append(np.max(np.abs(u - np.cos(pts))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.5


def test_residual_of_solver_output():
    p = ProblemParams(0.5, 1.0)
    prob = ReflectionProblem(p, lambda t: np.cos(t))
    u = solve_grid(prob, n=1000)
    assert residual(prob, u) <= 1e-4


def test_residual_grid_mismatch():
    prob = ReflectionProblem(ProblemParams(0.5, 1.0), lambda t: 1.0)
    u = GridFunction.from_callable(lambda t: 1.0, 2.0, 10)
    with pytest.raises(GridMismatch):
        residual(prob, u)


def test_residual_grid_mismatch_is_relative_to_T_below_one():
    # at T = 1e-9 a grid half-length 5e-4 longer is another grid, though it differs by 5e-13
    T = 1e-9
    prob = ReflectionProblem(ProblemParams(0.5 / T, T), lambda t: np.cos(t / T))
    with pytest.raises(GridMismatch):
        residual(prob, GridFunction.from_callable(lambda t: 1.0, T * (1 + 5e-4), 10))
    assert residual(prob, solve_grid(prob, n=1000)) <= 1e-4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_residual_rejects_non_finite_forcing(bad):
    prob = ReflectionProblem(ProblemParams(0.5, 1.0), lambda t: np.where(t > 0.5, bad, 1.0))
    u = GridFunction.from_callable(lambda t: 1.0, 1.0, 10)
    with pytest.raises(QuadratureFailure, match="non-finite"):
        residual(prob, u)


def test_residual_wraps_a_raising_forcing_as_solve_grid_does():
    prob = ReflectionProblem(ProblemParams(0.5, 1.0), math.log)
    with pytest.raises(QuadratureFailure, match="^forcing evaluation failed: math domain error$"):
        solve_grid(prob, n=10)
    with pytest.raises(QuadratureFailure, match="^forcing evaluation failed: math domain error$"):
        residual(prob, GridFunction.from_callable(lambda t: 1.0, 1.0, 10))


def test_residual_does_not_wrap_a_wrapped_forcing_failure_twice():
    # reflected_forcing calls rhs as given, so residual's vectorized call wraps the failure, once
    values = np.zeros(11)

    def rhs(t, y):
        raise ArithmeticError("boom")

    prob = ReflectionProblem(ProblemParams(0.5, 1.0), lambda s: reflected_forcing(np.linspace(-1, 1, 11), s, 0.5, rhs)(values))
    with pytest.raises(QuadratureFailure, match="^forcing evaluation failed: boom$"):
        residual(prob, GridFunction(1.0, values))


def test_residual_rejects_an_overflowing_defect():
    prob = ReflectionProblem(ProblemParams(1e308, 1e-308), lambda t: 0.0 * t, lam=20.0)
    u = GridFunction.from_callable(lambda t: 20.0, 1e-308, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure, match="residual is not finite"):
            residual(prob, u)


def test_resonant_solve_rejected():
    with pytest.raises(ResonantKernel):
        PeriodicGreenSolver(ProblemParams(math.pi, 1.0), np.linspace(-1.0, 1.0, 201)).solve(lambda t: 1.0)


def test_quadrature_failure_on_bad_forcing():
    solver = PeriodicGreenSolver(ProblemParams(0.5, 1.0), [0.0], n_quad=64)
    with pytest.raises(QuadratureFailure):
        solver.solve(lambda s: np.full(np.shape(s), np.nan))
    with pytest.raises(QuadratureFailure):
        solver.solve(lambda s: 1.0 / 0.0)


def test_solver_takes_forcing_values_at_its_nodes():
    solver = PeriodicGreenSolver(ProblemParams(0.5, 1.0), np.linspace(-1.0, 1.0, 11), n_quad=64)
    h = lambda s: np.cos(3 * s) + s  # noqa: E731
    assert np.array_equal(solver.solve(h, 0.25), solver.solve(h(solver.nodes), 0.25))
    with pytest.raises(ValueError, match="shape"):
        solver.solve(h(solver.nodes)[:-1])
    with pytest.raises(ValueError, match="shape"):
        solver.solve(np.float64(1.0))


@pytest.mark.parametrize(
    "h, lam", [(lambda s: np.full(np.shape(s), 1e308), 0.0), (lambda s: 0.0 * s, math.inf), (lambda s: 0.0 * s, math.nan)]
)
def test_solver_overflow_raises_quadrature_failure_without_warnings(h, lam):
    solver = PeriodicGreenSolver(ProblemParams(1.0, 1.0), np.linspace(-1.0, 1.0, 5), n_quad=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure, match="not finite"):
            solver.solve(h, lam)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1.5])
def test_solver_rejects_points_outside_the_domain(bad):
    with pytest.raises(OutOfDomain):
        PeriodicGreenSolver(ProblemParams(0.5, 1.0), [0.0, bad], n_quad=64)


@settings(max_examples=200, deadline=None)
@given(
    m=st.floats(0.05, 3.0) | st.floats(-3.0, -0.05),
    T=st.floats(0.1, 5.0),
    u=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
    bad=st.none() | st.sampled_from([math.nan, math.inf]) | st.floats(1.0 + 1e-9, 1e300),
    where=st.integers(0, 5),
)
def test_evaluation_points_are_finite_in_domain_and_rejected_outside(m, T, u, bad, where):
    """Finite points of [-T, T] give finite values; NaN, +-inf and points outside raise OutOfDomain."""
    params = ProblemParams(m, T)
    assume(not check_resonance(params).resonant)
    points = np.array(u) * T
    kern = Kernel(params)
    evaluations = (
        lambda x: kern.g(x, x[::-1]),
        lambda x: kern.gbar(x, x[::-1]),
        lambda x: PeriodicGreenSolver(params, x, n_quad=64).solve(np.cos),
    )
    if bad is None:
        for evaluate in evaluations:
            assert np.all(np.isfinite(evaluate(points)))
        return
    points[where % len(points)] = bad * T if math.isfinite(bad) else bad
    for evaluate in evaluations:
        with pytest.raises(OutOfDomain):
            evaluate(points)
    points[where % len(points)] *= -1
    for evaluate in evaluations:
        with pytest.raises(OutOfDomain):
            evaluate(points)


def test_solver_requires_n_quad_at_least_8():
    with pytest.raises(ValueError):
        PeriodicGreenSolver(ProblemParams(0.5, 1.0), [0.0], n_quad=7)


@pytest.mark.parametrize("shape", [(1, 5), (5, 1), (2, 3)])
def test_solver_rejects_eval_points_that_are_not_one_dimensional(shape):
    points = np.linspace(-0.5, 0.5, math.prod(shape)).reshape(shape)
    with pytest.raises(ValueError, match=r"^eval_points must be one-dimensional, got shape \(\d+, \d+\)$"):
        PeriodicGreenSolver(ProblemParams(0.5, 1.0), points, n_quad=64)


def _simpson_bound(T, n_quad, t, M4):
    """Simpson truncation bounds of both solvers at t, for |d^4/ds^4 integrand| <= M4.

    Composite Simpson with step k on a piece of length L errs by at most
    (L/180) k^4 M4.  The prefix-sum cells are single Simpson panels (step
    w/2) no wider than 2T/n_quad; the per-row rule splits at +-t and gives
    each piece `subintervals` steps.
    """
    cells = 2 * T / 180 * (T / n_quad) ** 4
    rows = sum((b - a) / 180 * ((b - a) / subintervals(n_quad, b - a, 2 * T)) ** 4 for a, b in segments(T, t))
    return (cells + rows) * M4


@settings(max_examples=100)
@given(
    T=st.floats(0.25, 3.0),
    alpha=st.floats(-4.0, 4.0).filter(lambda a: abs(math.sin(a)) >= 0.1),
    omega=st.floats(0.0, 3.0),
    phase=st.floats(0.0, 2 * math.pi),
    lam=st.floats(-2.0, 2.0).filter(lambda v: abs(v) >= 1e-3),
    n_quad=st.sampled_from([16, 64, 256]),
    off_grid=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
)
def test_prefix_sums_match_per_row_oracle(T, alpha, omega, phase, lam, n_quad, off_grid):
    params = ProblemParams(alpha / T, T)
    grid = np.linspace(-T, T, n_quad + 1)
    near = np.nextafter(grid[1:-1:5], 0.0)  # one ulp off grid nodes: near-empty cells
    pts = np.concatenate([[0.0, -T, T], grid[:: max(1, n_quad // 8)], near, T * np.array(off_grid)])
    h = lambda s: np.cos(omega * s + phase)
    new = PeriodicGreenSolver(params, pts, n_quad).solve(h, lam)
    old = per_row_solve(params, pts, h, lam, n_quad)
    # integrand on each smooth piece: A(z) B(s/T) h(s) / (2 sin alpha) with
    # |A| <= sqrt(2) and the s-factor and h sinusoids of frequency |m| and omega
    sin_a = abs(math.sin(alpha))
    M4 = (abs(params.m) + omega) ** 4 / sin_a
    truncation = np.array([_simpson_bound(T, n_quad, float(t), M4) for t in pts])
    # recursive summation of n terms errs by at most n*eps times the sum of
    # their moduli, here at most (2T + |lam|) / sin(alpha); four such sums
    # (three prefix sums, the oracle's dot product) of at most n_terms terms
    n_terms = n_quad + 2 * len(pts) + 2 * max(8, n_quad)
    roundoff = 4 * n_terms * np.finfo(float).eps * (2 * T + abs(lam)) / sin_a
    assert np.all(np.abs(new - old) <= truncation + roundoff)


def test_comparison_principle():
    # 0 < m1 < m2 <= pi/(4T), h > 0: solutions and kernels ordered strictly
    T = 1.0
    h = lambda t: 1.0
    u1 = solve_grid(ReflectionProblem(ProblemParams(0.3, T), h), n=200)
    u2 = solve_grid(ReflectionProblem(ProblemParams(0.7, T), h), n=200)
    assert np.all(u1.values > u2.values)


@pytest.mark.parametrize("n", [0, -2])
def test_grid_size_below_2_is_rejected_before_any_work(n):
    calls = []

    def h(t):
        calls.append(t)
        return np.ones_like(t)

    with pytest.raises(ValueError, match=r"^n must be even and >= 2$"):
        solve_grid(ReflectionProblem(ProblemParams(0.5, 1.0), h), n=n)
    with pytest.raises(ValueError, match=r"^n must be even and >= 2$"):
        GridFunction.from_callable(h, 1.0, n)
    assert calls == []


def test_solution_linearity():
    p = ProblemParams(0.7, 1.0)
    t = np.linspace(-1, 1, 9)
    solver = PeriodicGreenSolver(p, t)
    ua = solver.solve(np.cos)
    ub = solver.solve(np.sin)
    uab = solver.solve(lambda s: 2 * np.cos(s) - 3 * np.sin(s))
    assert np.max(np.abs(uab - (2 * ua - 3 * ub))) <= 1e-10


SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308]
SPECIAL_VALUES += [math.inf, -math.inf, math.nan, 1.0 / 3.0, -2.5, 1e16, 123456789.0]


def test_csv_text_matches_csv_writer_on_special_values():
    a = np.array(SPECIAL_VALUES)
    grid = a.reshape(2, 7)
    # rows across several of write_csv's blocks, the last one partial
    long = np.tile(a, 2 * CSV_BLOCK_ROWS // a.size + 1)
    for header, columns in (
        (["v"], (a,)),
        (["a", "b"], (a, a[::-1])),
        (["t", "s", "value"], (grid, -grid, grid.T)),
        (["a", "b"], (long, long[::-1])),
    ):
        assert csv_text(header, *columns) == csv_oracle.csv_text(header, *columns)


@settings(max_examples=100, deadline=None)
@given(block=arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(0, 20)), elements=st.floats(width=64)))
def test_csv_text_matches_csv_writer(block):
    header = [f"c{i}" for i in range(len(block))]
    assert csv_text(header, *block) == csv_oracle.csv_text(header, *block)


# write_csv formats each distinct value of a block column once when the
# column repeats itself; this pool makes most blocks repeat, and its NaNs
# differ in their bits (a payload, a sign) but are all written "nan"
CSV_POOL = np.concatenate(
    [
        [0.0, -0.0, math.inf, -math.inf, 5e-324, -2.2250738585072009e-308, 1.0 / 3.0],
        np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64),
    ]
)
CSV_ROWS = st.integers(0, 40) | st.sampled_from([CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 7])


def assert_csv_text_matches_csv_writer(header, *columns):
    # compares line by line: a diff of two long texts would take the failing test minutes
    got = csv_text(header, *columns).splitlines()
    want = csv_oracle.csv_text(header, *columns).splitlines()
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert len(got) == len(want) and not bad, (len(got), len(want), [(got[i], want[i]) for i in bad[:3]])


def csv_column(kind: str, rows: int, rng) -> np.ndarray:
    if kind == "pool":  # a few distinct values, specials included
        return CSV_POOL[rng.integers(0, rng.integers(1, CSV_POOL.size + 1), rows)]
    if kind == "distinct":
        return rng.standard_normal(rows)
    if kind == "bits":  # any binary64, NaNs and subnormals included
        return rng.integers(0, 2**64, rows, dtype=np.uint64).view(np.float64)
    # exactly half a full block's rows distinct, or one more than half
    return ((np.arange(rows) + (kind == "pairs+1")) // 2) / 3.0


@settings(max_examples=60, deadline=None)
@given(
    rows=CSV_ROWS,
    kinds=st.lists(st.sampled_from(["pool", "distinct", "bits", "pairs", "pairs+1"]), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_csv_text_matches_csv_writer_on_repeated_values(rows, kinds, seed):
    rng = np.random.default_rng(seed)
    columns = [csv_column(kind, rows, rng) for kind in kinds]
    assert_csv_text_matches_csv_writer([f"c{i}" for i in range(len(columns))], *columns)


@pytest.mark.parametrize("side", [1, 2, 63, 64, 65, 101, 150])
def test_csv_text_matches_csv_writer_on_meshgrids(side):
    # the kernel command's shape: t repeats in runs, s cycles through the axis
    u = np.linspace(-1.0, 1.0, side)
    tt, ss = np.meshgrid(u, u, indexing="ij")
    values = [np.sin(tt * ss), CSV_POOL[np.arange(side * side).reshape(side, side) % CSV_POOL.size]]
    for value in values:
        assert_csv_text_matches_csv_writer(["t", "s", "value"], tt, ss, value)


class _Sink:
    def write(self, text):
        pass


@pytest.mark.parametrize(
    ("header", "sizes", "message"),
    [
        (["a"], (3, 3), r"^header names 1 columns, got 2$"),
        (["a", "b", "c"], (3, 3), r"^header names 3 columns, got 2$"),
        (["a", "b"], (5000, 4096), r"^columns must have one size, got sizes \[5000, 4096\]$"),
        (["a", "b"], (3, 4), r"^columns must have one size, got sizes \[3, 4\]$"),
        ([], (), r"^write_csv needs at least one column$"),
    ],
)
def test_write_csv_rejects_mismatched_header_or_columns_before_writing(header, sizes, message):
    buf = io.StringIO()
    with pytest.raises(ValueError, match=message):
        write_csv(buf, header, *(np.zeros(n) for n in sizes))
    assert buf.getvalue() == ""


def test_write_csv_memory_does_not_grow_with_the_rows():
    # rows go out block by block: the peak above the inputs is one block's,
    # here with one repeating (%s) and one distinct (%.17g) column
    peaks = []
    for rows in (50_000, 200_000):
        rng = np.random.default_rng(rows)
        columns = [csv_column("pool", rows, rng), csv_column("distinct", rows, rng)]
        tracemalloc.start()
        try:
            write_csv(_Sink(), ["a", "b"], *columns)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_grid_function_rejects_complex_values():
    with pytest.raises(ValueError, match="values must be real"):
        GridFunction(1.0, np.array([1 + 2j, 2, 3 + 1j]))


def test_solver_rejects_complex_eval_points():
    with pytest.raises(ValueError, match="eval_points must be real"):
        PeriodicGreenSolver(ProblemParams(1, 1), np.array([0.1 + 0.5j, 0.2]))


def test_solver_rejects_complex_forcing_values():
    solver = PeriodicGreenSolver(ProblemParams(1, 1), [0.1, 0.2], n_quad=8)
    values = np.cos(solver.nodes)
    solver.solve(values)
    with pytest.raises(ValueError, match="forcing values must be real"):
        solver.solve(values + 1j)


def test_solver_rejects_a_complex_lambda():
    solver = PeriodicGreenSolver(ProblemParams(1, 1), np.linspace(-1, 1, 5), 16)
    with pytest.raises(ValueError, match="^lam must be a real scalar, got complex$"):
        solver.solve(lambda t: np.ones_like(t), lam=1j)


def test_solve_grid_rejects_a_complex_lambda():
    problem = ReflectionProblem(ProblemParams(1, 1), lambda t: np.ones_like(t), lam=1j)
    with pytest.raises(ValueError, match="^lam must be a real scalar, got complex$"):
        solve_grid(problem, n=10)
