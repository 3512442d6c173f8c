"""Every array argument of the public API goes through kernel.real_array.

One row per public (callable, array parameter): given numeric strings or
complex values, the call raises ValueError naming the parameter before any
user function runs.  The completeness guard collects every public
callable's array parameters by name, so a new one without a row fails
here; the AST guard keeps the float conversion of a parameter inside
real_array, and a source guard keeps one copy of the rule that turns a
user function's exception into the library's error.  The scalar rows check that a non-finite λ, m, start or end
is rejected before the user function runs, and the result rows that a user
function returning strings fails on both paths of linsolve.vectorized.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import refleq
from public_parameters import counting, public_parameters
from refleq.errors import QuadratureFailure
from refleq.kernel import ProblemParams, check_domain
from refleq.linsolve import GridFunction, PeriodicGreenSolver, ReflectionProblem, residual, solve_grid
from refleq.monotone import SplineAt, reflected_forcing
from refleq.reduce import (
    NonlinearProblem,
    SystemSolution,
    integrate_mirrored,
    integrate_rk4,
    logistic_family_solution,
    reduce_system,
)

ARRAY_NAMES = {"grid", "points", "values", "init", "sign", "state", "times", "eval_points"}
MODULES = ["kernel", "linsolve", "monotone", "cone", "reduce"]

PARAMS = ProblemParams(0.5, 1.0)
GRID = np.linspace(-1.0, 1.0, 9)
BIG = 10**400  # beyond the double range: math.isfinite raises OverflowError on it


# (qualified name, parameter) -> (name in the message, a valid value, call(f, x)): f is the user function, if the callable takes one
ARRAY_ROWS = {
    ("refleq.kernel.check_domain", "points"): ("points", np.array([0.1]), lambda f, x: check_domain(PARAMS, x)),
    ("refleq.linsolve.GridFunction", "values"): ("values", np.ones(9), lambda f, x: GridFunction(1.0, x)),
    ("refleq.linsolve.PeriodicGreenSolver", "eval_points"): (
        "eval_points",
        np.array([0.1]),
        lambda f, x: PeriodicGreenSolver(PARAMS, x, n_quad=8).solve(f),
    ),
    ("refleq.monotone.SplineAt", "grid"): ("grid", GRID, lambda f, x: SplineAt(x, [0.5])),
    ("refleq.monotone.SplineAt", "points"): ("points", np.array([0.5]), lambda f, x: SplineAt(GRID, x)),
    ("refleq.monotone.SplineAt.__call__", "values"): ("values", np.ones(9), lambda f, x: SplineAt(GRID, [0.5])(x)),
    ("refleq.monotone.reflected_forcing", "grid"): ("grid", GRID, lambda f, x: reflected_forcing(x, [0.1], 0.5, f)(np.ones(9))),
    ("refleq.monotone.reflected_forcing", "points"): (
        "points",
        np.array([0.1]),
        lambda f, x: reflected_forcing(GRID, x, 0.5, f)(np.ones(9)),
    ),
    ("refleq.reduce.SystemReduction.rhs", "state"): (
        "state",
        np.ones(2),
        lambda f, x: reduce_system(NonlinearProblem(f, 1.0)).rhs(0.5, x),
    ),
    ("refleq.reduce.SystemSolution", "times"): ("times", GRID, lambda f, x: SystemSolution(x, np.zeros(9), np.zeros(9))),
    ("refleq.reduce.SystemSolution", "y_values"): ("y_values", np.zeros(9), lambda f, x: SystemSolution(GRID, x, np.zeros(9))),
    ("refleq.reduce.SystemSolution", "x_values"): ("x_values", np.zeros(9), lambda f, x: SystemSolution(GRID, np.zeros(9), x)),
    ("refleq.reduce.integrate_rk4", "init"): ("init", np.ones(1), lambda f, x: integrate_rk4(f, 0.0, 1.0, x, 10)),
    ("refleq.reduce.integrate_rk4", "sign"): ("sign", np.array(1.0), lambda f, x: integrate_rk4(f, 0.0, 1.0, [1.0], 10, x)),
    ("refleq.reduce.integrate_mirrored", "init"): (
        "init",
        np.ones(2),
        lambda f, x: integrate_mirrored(NonlinearProblem(f, 1.0), x, 10, False),
    ),
    ("refleq.reduce.logistic_family_solution", "times"): ("times", GRID, lambda f, x: logistic_family_solution(0.0, x)),
}

IDS = [f"{q.rsplit('.', 1)[-1]}-{p}" for q, p in ARRAY_ROWS]

# each turns a valid array into one of the same shape whose dtype real_array rejects
BAD = {
    "numeric-str": (lambda good: good.astype(str), r"must be real numbers, got dtype <U\d+"),
    "complex": (lambda good: good.astype(complex), "must be real, got complex values"),
}


@pytest.mark.parametrize("bad", list(BAD.values()), ids=list(BAD))
@pytest.mark.parametrize("row", list(ARRAY_ROWS.values()), ids=IDS)
def test_an_array_argument_that_is_not_real_is_rejected_before_f_is_called(row, bad):
    name, good, call = row
    spoil, message = bad
    f, calls = counting()
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} {message}$"):
        call(f, spoil(good))
    assert calls == []


def test_every_public_array_parameter_has_a_row():
    found = public_parameters(MODULES, ARRAY_NAMES, dunders=("__call__",))
    assert found, "the collector found no array parameter at all"
    assert sorted(found - set(ARRAY_ROWS)) == []


NOT_FINITE = {
    "solve-lam": (lambda f, x: PeriodicGreenSolver(PARAMS, [0.1], n_quad=8).solve(f, x), QuadratureFailure, "lambda is not finite"),
    "solve_grid-lam": (lambda f, x: solve_grid(ReflectionProblem(PARAMS, f, x), n=8, n_quad=8), QuadratureFailure, "lambda is not finite"),
    "residual-lam": (
        lambda f, x: residual(ReflectionProblem(PARAMS, f, x), GridFunction(1.0, np.ones(9))),
        QuadratureFailure,
        "lambda is not finite",
    ),
    "reflected_forcing-m": (lambda f, x: reflected_forcing(GRID, [0.1], x, f)(np.ones(9)), ValueError, "m must be finite"),
    "integrate_rk4-start": (lambda f, x: integrate_rk4(f, x, 1.0, [1.0], 10), ValueError, "start and end must be finite"),
    "integrate_rk4-end": (lambda f, x: integrate_rk4(f, 0.0, x, [1.0], 10), ValueError, "start and end must be finite"),
}


@pytest.mark.parametrize("x", [BIG, math.nan, -math.inf], ids=["big-int", "nan", "-inf"])
@pytest.mark.parametrize("row", list(NOT_FINITE.values()), ids=list(NOT_FINITE))
def test_a_non_finite_lam_m_start_or_end_is_rejected_before_f_is_called(row, x):
    call, error, message = row
    f, calls = counting()
    with pytest.raises(error, match=f"^{message}$"):
        call(f, x)
    assert calls == []


STRING_RESULTS = {
    "native-scalar": lambda t: "1.5",
    "native-array": lambda t: np.full(np.shape(t), "1.5"),
    "native-list": lambda t: np.full(np.shape(t), 1.5).astype(str).tolist(),
    "per-element": lambda t: "1.5" if t >= 0 else "2.5",  # `t >= 0` rejects arrays
}


@pytest.mark.parametrize("h", list(STRING_RESULTS.values()), ids=list(STRING_RESULTS))
def test_a_forcing_that_returns_strings_gives_quadrature_failure(h):
    with pytest.raises(QuadratureFailure, match="^forcing evaluation returned non-numeric values$"):
        solve_grid(ReflectionProblem(PARAMS, h), n=8, n_quad=8)


def test_a_frompyfunc_forcing_gives_the_bits_of_its_float_forcing():
    # np.frompyfunc returns an object array: the cast to float keeps every value
    exact = solve_grid(ReflectionProblem(PARAMS, np.cos), n=8, n_quad=8).values
    assert np.array_equal(solve_grid(ReflectionProblem(PARAMS, np.frompyfunc(math.cos, 1, 1)), n=8, n_quad=8).values, exact)


_ARRAY_CASTS = {"np.asarray", "np.array"}


def _is_float(node):
    return ast.unparse(node) in ("float", "np.float64")


def _float_casts_of_own_arguments(source):
    """(function, argument) for each cast to float, outside real_array, of a parameter or a self. field.

    A cast is np.asarray or np.array with dtype float (keyword or second
    argument), or .astype(float).
    """
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name == "real_array":
            continue
        a = node.args
        own = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p is not None}
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func, arg = call.func, None
            if ast.unparse(func) in _ARRAY_CASTS and call.args:
                dtypes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "dtype"]
                if any(_is_float(d) for d in dtypes):
                    arg = call.args[0]
            elif isinstance(func, ast.Attribute) and func.attr == "astype" and call.args and _is_float(call.args[0]):
                arg = func.value
            if isinstance(arg, ast.Name) and arg.id in own or isinstance(arg, ast.Attribute) and ast.unparse(arg.value) == "self":
                hits.append((node.name, ast.unparse(arg)))
    return hits


def test_the_float_cast_guard_sees_a_parameter_and_a_field():
    source = (
        "def f(x, y, z):\n    return np.asarray(x, dtype=float), np.array(y, float), z.astype(float), np.asarray(x + y, float)\n\n"
        "class C:\n    def g(self, w):\n        return np.asarray(self.grid, dtype=np.float64), np.asarray(w), w.astype(int)\n"
    )
    assert _float_casts_of_own_arguments(source) == [("f", "x"), ("f", "y"), ("f", "z"), ("g", "self.grid")]


@pytest.mark.parametrize("path", sorted(Path(refleq.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_only_real_array_casts_an_argument_to_float(path):
    assert _float_casts_of_own_arguments(path.read_text()) == []


def test_the_user_function_failure_rule_has_one_copy():
    # linsolve._raise_user_failure holds the rule that vectorized and integrate_rk4 share
    source = "".join(path.read_text() for path in sorted(Path(refleq.__file__).parent.glob("*.py")))
    assert source.count("forcing evaluation failed") == 1
    assert source.count("forcing evaluation overflowed") == 1
    assert "rhs overflowed in the step" not in source
