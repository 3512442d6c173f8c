"""Every size and count argument of the public API goes through kernel.check_lattice_size.

One row per public (callable, size parameter): given a float or a string, the
call raises ValueError naming the parameter before any user function runs.
The completeness guard collects every public refleq callable's size
parameters by name, so a new one without a row fails here.
"""

import io
import math
import pkgutil

import numpy as np
import pytest

import refleq
from public_parameters import bracket, counting, public_parameters
from refleq.cone import ConeBounds, check_negative_existence, check_positive_existence, fixed_point_operator, sweep_annulus
from refleq.kernel import MAX_LATTICE_POINTS, Kernel, ProblemParams, check_lattice_size, classify_sign, spectrum
from refleq.linsolve import GridFunction, PeriodicGreenSolver, ReflectionProblem, solve_grid, write_csv
from refleq.monotone import iterate, one_sided_lipschitz_check
from refleq.reduce import NonlinearProblem, integrate_ivp, integrate_mirrored, integrate_rk4, shoot_periodic

SIZE_NAMES = {"n", "n_quad", "n_steps", "grid_n", "sample_density", "max_iters", "max_newton", "k_max", "n_t", "n_xy"}

PARAMS = ProblemParams(0.5, 1.0)
BOUNDS = ConeBounds(m=0.5, T=1.0, r=1.0, R=10.0)


# (qualified name, parameter) -> call(f, size): f is the user function, if the callable takes one
SIZE_ROWS = {
    ("refleq.kernel.spectrum", "k_max"): lambda f, k: spectrum(PARAMS, k),
    ("refleq.kernel.classify_sign", "grid_n"): lambda f, k: classify_sign(PARAMS, grid_n=k),
    ("refleq.linsolve.solve_grid", "n"): lambda f, k: solve_grid(ReflectionProblem(PARAMS, f), n=k),
    ("refleq.linsolve.solve_grid", "n_quad"): lambda f, k: solve_grid(ReflectionProblem(PARAMS, f), n_quad=k),
    ("refleq.linsolve.GridFunction.from_callable", "n"): lambda f, k: GridFunction.from_callable(f, 1.0, k),
    ("refleq.linsolve.PeriodicGreenSolver", "n_quad"): lambda f, k: PeriodicGreenSolver(PARAMS, [0.1], n_quad=k),
    ("refleq.reduce.integrate_rk4", "n_steps"): lambda f, k: integrate_rk4(f, 0.0, 1.0, [1.0], k),
    ("refleq.reduce.integrate_mirrored", "n_steps"): lambda f, k: integrate_mirrored(NonlinearProblem(f, 1.0), (0.1, 0.1), k, False),
    ("refleq.reduce.integrate_ivp", "n_steps"): lambda f, k: integrate_ivp(NonlinearProblem(f, 1.0), 0.1, k),
    ("refleq.reduce.shoot_periodic", "n_steps"): lambda f, k: shoot_periodic(NonlinearProblem(f, 1.0), n_steps=k),
    ("refleq.reduce.shoot_periodic", "max_newton"): lambda f, k: shoot_periodic(NonlinearProblem(f, 1.0), max_newton=k),
    ("refleq.monotone.iterate", "max_iters"): lambda f, k: iterate(f, bracket(), 0.5, max_iters=k),
    ("refleq.monotone.iterate", "n_quad"): lambda f, k: iterate(f, bracket(), 0.5, n_quad=k),
    ("refleq.monotone.one_sided_lipschitz_check", "n_t"): lambda f, k: one_sided_lipschitz_check(f, bracket(), 0.5, n_t=k),
    ("refleq.monotone.one_sided_lipschitz_check", "n_xy"): lambda f, k: one_sided_lipschitz_check(f, bracket(), 0.5, n_xy=k),
    ("refleq.cone.check_positive_existence", "sample_density"): lambda f, k: check_positive_existence(f, BOUNDS, k),
    ("refleq.cone.check_negative_existence", "sample_density"): lambda f, k: check_negative_existence(f, BOUNDS, k),
    ("refleq.cone.sweep_annulus", "sample_density"): lambda f, k: sweep_annulus(f, PARAMS, [1.0], [10.0], sample_density=k),
    ("refleq.cone.fixed_point_operator", "n_quad"): lambda f, k: fixed_point_operator(f, 0.5, GridFunction(1.0, np.ones(9)), n_quad=k),
}


@pytest.mark.parametrize("bad", [10.0, 2.5, "4"])
@pytest.mark.parametrize("call", list(SIZE_ROWS.values()), ids=[f"{q.rsplit('.', 1)[-1]}-{p}" for q, p in SIZE_ROWS])
def test_a_size_that_is_not_an_integer_is_rejected_before_f_is_called(call, bad):
    ((_, name),) = [key for key, row in SIZE_ROWS.items() if row is call]
    f, calls = counting()
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
        call(f, bad)
    assert calls == []


@pytest.mark.parametrize(
    "call", [SIZE_ROWS["refleq.reduce.shoot_periodic", "max_newton"], SIZE_ROWS["refleq.monotone.iterate", "max_iters"]], ids=["max_newton", "max_iters"]
)
def test_iteration_counts_share_the_lattice_cap(call):
    f, calls = counting()
    with pytest.raises(ValueError, match="above the cap of 10000000"):
        call(f, MAX_LATTICE_POINTS + 1)
    assert calls == []


@pytest.mark.parametrize("side, dims", [(np.int64(2**32), 2), (np.int64(2**21 + 1), 3)])
def test_the_cap_holds_where_a_numpy_int_power_would_wrap(side, dims):
    # int64 arithmetic wraps 2**64 to 0, which would pass the cap and reach the allocation
    with pytest.raises(ValueError, match="above the cap of 10000000"):
        check_lattice_size("n", side, dims)


def test_every_public_size_parameter_has_a_row():
    modules = [info.name for info in pkgutil.iter_modules(refleq.__path__)]
    assert public_parameters(modules, SIZE_NAMES) == set(SIZE_ROWS)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Kernel(PARAMS).gbar("0.3", 0.1), "points must be real numbers, got dtype <U3"),
        (lambda: Kernel(PARAMS).g(0.3, np.array([0.1], dtype=object)), "points must be real numbers, got dtype object"),
        (lambda: GridFunction(1.0, np.array(["1", "2", "3"])), "values must be real numbers, got dtype <U1"),
        (lambda: PeriodicGreenSolver(PARAMS, ["0.1"], n_quad=8), "eval_points must be real numbers, got dtype <U3"),
        (lambda: PeriodicGreenSolver(PARAMS, [0.1], n_quad=8).solve(np.full(37, "1")), "forcing values must be real numbers, got dtype <U1"),
    ],
    ids=["gbar-string", "g-object", "grid-values", "eval-points", "forcing-values"],
)
def test_real_array_rejects_a_dtype_that_is_not_bool_int_or_float(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_write_csv_rejects_string_columns_before_writing():
    buf = io.StringIO()
    with pytest.raises(ValueError, match="^columns must be real numbers, got dtype <U1$"):
        write_csv(buf, ["a"], np.array(["1"]))
    assert buf.getvalue() == ""


@pytest.mark.parametrize("values", [np.array([True, False, True]), np.array([1, 2, 3], dtype=np.uint8), np.array([1, 2, 3], dtype=np.float32)])
def test_real_array_accepts_bool_int_and_float(values):
    assert GridFunction(1.0, values).values.tolist() == values.astype(float).tolist()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ProblemParams(1j, 1.0), "m must be a real scalar, got complex"),
        (lambda: ProblemParams("1", 1.0), "m must be a real scalar, got str"),
        (lambda: ProblemParams(0.5, 1j), "T must be a real scalar, got complex"),
        (lambda: ProblemParams(0.5, None), "T must be a real scalar, got NoneType"),
        (lambda: NonlinearProblem(lambda t, y, x: x, "1"), "T must be a real scalar, got str"),
    ],
    ids=["m-complex", "m-str", "T-complex", "T-None", "nonlinear-T-str"],
)
def test_problem_coefficients_must_be_real_scalars(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_real_scalar_coefficients_of_numpy_types_are_accepted():
    assert ProblemParams(np.float32(0.5), np.int64(1)).alpha == 0.5
    assert NonlinearProblem(lambda t, y, x: x, np.float64(1.0)).T == 1.0
    assert math.isfinite(Kernel(ProblemParams(0.5, 1)).gbar(0.3, 0.1))
