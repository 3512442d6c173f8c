"""Every real scalar argument of the public API goes through kernel.check_real_scalar.

One row per public (callable, real parameter): given a string, a complex
number or None, the call raises ValueError naming the parameter before any
user function runs.  An int beyond the double range counts as not finite.
The completeness guard collects every public callable's real parameters by
name, so a new one without a row fails here; the AST guard keeps the
finiteness test of a parameter inside check_real_scalar.
"""

import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import refleq
from public_parameters import bracket, counting, public_parameters
from refleq.cli import run
from refleq.cone import ConeBounds, check_asymptotic_corollary, fixed_point_operator, sweep_annulus
from refleq.errors import BadWindow
from refleq.kernel import ProblemParams
from refleq.linsolve import GridFunction, PeriodicGreenSolver, ReflectionProblem, residual, solve_grid
from refleq.monotone import iterate, one_sided_lipschitz_check, reflected_forcing
from refleq.reduce import (
    NonlinearProblem,
    collocate_periodic,
    filter_reflection_solution,
    integrate_ivp,
    integrate_rk4,
    logistic_family_solution,
    shoot_periodic,
)

REAL_NAMES = {"m", "T", "r", "R", "lam", "tol", "newton_tol", "x0", "guess", "r_values", "R_values", "start", "end", "c"}
MODULES = ["kernel", "linsolve", "monotone", "cone", "reduce"]

PARAMS = ProblemParams(0.5, 1.0)
BIG = 10**400  # beyond the double range: math.isfinite raises OverflowError on it


def _trajectory():
    return logistic_family_solution(0.0, np.linspace(-1.0, 1.0, 11))


# (qualified name, parameter) -> (name in the message, call(f, x)): f is the user function, if the callable takes one
REAL_ROWS = {
    ("refleq.kernel.ProblemParams", "m"): ("m", lambda f, x: ProblemParams(x, 1.0)),
    ("refleq.kernel.ProblemParams", "T"): ("T", lambda f, x: ProblemParams(0.5, x)),
    ("refleq.linsolve.GridFunction", "T"): ("T", lambda f, x: GridFunction(x, np.ones(9))),
    ("refleq.linsolve.GridFunction.from_callable", "T"): ("T", lambda f, x: GridFunction.from_callable(f, x, 8)),
    ("refleq.linsolve.ReflectionProblem", "lam"): ("lam", lambda f, x: solve_grid(ReflectionProblem(PARAMS, f, x), n=8, n_quad=8)),
    ("refleq.linsolve.PeriodicGreenSolver.solve", "lam"): ("lam", lambda f, x: PeriodicGreenSolver(PARAMS, [0.1], n_quad=8).solve(f, x)),
    ("refleq.linsolve.residual", "problem.lam"): ("lam", lambda f, x: residual(ReflectionProblem(PARAMS, f, x), GridFunction(1.0, np.ones(9)))),
    ("refleq.monotone.reflected_forcing", "m"): ("m", lambda f, x: reflected_forcing(np.linspace(-1.0, 1.0, 9), [0.1], x, f)(np.ones(9))),
    ("refleq.monotone.iterate", "m"): ("m", lambda f, x: iterate(f, bracket(), x)),
    ("refleq.monotone.iterate", "tol"): ("tol", lambda f, x: iterate(f, bracket(), 0.5, tol=x)),
    ("refleq.monotone.one_sided_lipschitz_check", "m"): ("m", lambda f, x: one_sided_lipschitz_check(f, bracket(), x)),
    ("refleq.cone.ConeBounds", "m"): ("m", lambda f, x: ConeBounds(x, 1.0, 1.0, 10.0)),
    ("refleq.cone.ConeBounds", "T"): ("T", lambda f, x: ConeBounds(0.5, x, 1.0, 10.0)),
    ("refleq.cone.ConeBounds", "r"): ("r", lambda f, x: ConeBounds(0.5, 1.0, x, 10.0)),
    ("refleq.cone.ConeBounds", "R"): ("R", lambda f, x: ConeBounds(0.5, 1.0, 1.0, x)),
    ("refleq.cone.check_asymptotic_corollary", "m"): ("m", lambda f, x: check_asymptotic_corollary(f, x, 1.0)),
    ("refleq.cone.check_asymptotic_corollary", "T"): ("T", lambda f, x: check_asymptotic_corollary(f, 0.5, x)),
    ("refleq.cone.fixed_point_operator", "m"): ("m", lambda f, x: fixed_point_operator(f, x, GridFunction(1.0, np.ones(9)))),
    ("refleq.cone.sweep_annulus", "r_values"): ("r", lambda f, x: sweep_annulus(f, PARAMS, [1.0, x], [10.0])),
    ("refleq.cone.sweep_annulus", "R_values"): ("R", lambda f, x: sweep_annulus(f, PARAMS, [1.0], [10.0, x])),
    ("refleq.reduce.NonlinearProblem", "T"): ("T", lambda f, x: NonlinearProblem(f, x)),
    ("refleq.reduce.integrate_rk4", "start"): ("start", lambda f, x: integrate_rk4(f, x, 1.0, [1.0], 10)),
    ("refleq.reduce.integrate_rk4", "end"): ("end", lambda f, x: integrate_rk4(f, 0.0, x, [1.0], 10)),
    ("refleq.reduce.integrate_ivp", "x0"): ("x0", lambda f, x: integrate_ivp(NonlinearProblem(f, 1.0), x, 10)),
    ("refleq.reduce.shoot_periodic", "guess"): ("guess[0]", lambda f, x: shoot_periodic(NonlinearProblem(f, 1.0), guess=(x, x), n_steps=10)),
    ("refleq.reduce.shoot_periodic", "newton_tol"): (
        "newton_tol",
        lambda f, x: shoot_periodic(NonlinearProblem(f, 1.0), n_steps=10, newton_tol=x),
    ),
    ("refleq.reduce.collocate_periodic", "guess"): ("guess[0]", lambda f, x: collocate_periodic(NonlinearProblem(f, 1.0), guess=(x, x))),
    ("refleq.reduce.collocate_periodic", "newton_tol"): ("newton_tol", lambda f, x: collocate_periodic(NonlinearProblem(f, 1.0), newton_tol=x)),
    ("refleq.reduce.filter_reflection_solution", "tol"): ("tol", lambda f, x: filter_reflection_solution(_trajectory(), tol=x)),
    ("refleq.reduce.logistic_family_solution", "c"): ("c", lambda f, x: logistic_family_solution(x, np.linspace(-1.0, 1.0, 11))),
}

IDS = [f"{q.rsplit('.', 1)[-1]}-{p}" for q, p in REAL_ROWS]


@pytest.mark.parametrize("bad", ["1", 1j, None], ids=["str", "complex", "None"])
@pytest.mark.parametrize("row", list(REAL_ROWS.values()), ids=IDS)
def test_a_real_argument_that_is_not_a_real_scalar_is_rejected_before_f_is_called(row, bad):
    name, call = row
    f, calls = counting()
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be a real scalar, got {type(bad).__name__}$"):
        call(f, bad)
    assert calls == []


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda f: ProblemParams(BIG, 1.0), ValueError, "m, T and m*T must be finite"),
        (lambda f: ProblemParams(1.0, BIG), ValueError, "m, T and m*T must be finite"),
        (lambda f: ProblemParams(10**200, 10**200), ValueError, "m, T and m*T must be finite"),
        (lambda f: ProblemParams(np.float64(1e200), np.float64(1e200)), ValueError, "m, T and m*T must be finite"),
        (lambda f: NonlinearProblem(f, BIG), ValueError, "T must be finite and strictly positive"),
        (lambda f: GridFunction(BIG, np.ones(9)), ValueError, "T must be finite and > 0"),
        (lambda f: GridFunction.from_callable(f, BIG, 8), ValueError, "T must be finite and > 0"),
        (lambda f: check_asymptotic_corollary(f, 0.5, BIG), ValueError, "T must be finite and strictly positive"),
        (lambda f: ConeBounds(0.5, 1.0, 1.0, BIG), ValueError, "need finite 0 < r < R"),
        (lambda f: sweep_annulus(f, PARAMS, [1.0], [10.0, BIG]), ValueError, "need finite 0 < r < R"),
        (lambda f: integrate_ivp(NonlinearProblem(f, 1.0), BIG, 10), ValueError, "x0 must be finite"),
        (lambda f: shoot_periodic(NonlinearProblem(f, 1.0), guess=(BIG, 0.0), n_steps=10), ValueError, "guess must give a finite p"),
        (lambda f: shoot_periodic(NonlinearProblem(f, 1.0), n_steps=10, newton_tol=BIG), ValueError, "newton_tol must be finite"),
        (lambda f: collocate_periodic(NonlinearProblem(f, 1.0), guess=(BIG, 0.0)), ValueError, "guess must give a finite p"),
        (lambda f: collocate_periodic(NonlinearProblem(f, 1.0), newton_tol=BIG), ValueError, "newton_tol must be finite"),
        (lambda f: filter_reflection_solution(_trajectory(), tol=BIG), ValueError, "tol must be finite and >= 0"),
        (lambda f: iterate(f, bracket(), BIG), BadWindow, "outside the inverse-positive/negative windows"),
        (lambda f: iterate(f, bracket(), 0.5, tol=BIG), ValueError, "tol must be finite"),
        (lambda f: one_sided_lipschitz_check(f, bracket(), -BIG), BadWindow, "outside the inverse-positive/negative windows"),
    ],
    ids=[
        "ProblemParams-m",
        "ProblemParams-T",
        "ProblemParams-mT",
        "ProblemParams-numpy-mT",
        "NonlinearProblem-T",
        "GridFunction-T",
        "from_callable-T",
        "corollary-T",
        "ConeBounds-R",
        "sweep_annulus-R_values",
        "integrate_ivp-x0",
        "shoot_periodic-guess",
        "shoot_periodic-newton_tol",
        "collocate_periodic-guess",
        "collocate_periodic-newton_tol",
        "filter-tol",
        "iterate-m",
        "iterate-tol",
        "lipschitz-m",
    ],
)
def test_an_int_beyond_the_double_range_counts_as_not_finite(call, error, message):
    f, calls = counting()
    with pytest.raises(error, match=re.escape(message)):
        call(f)
    assert calls == []


@pytest.mark.parametrize(
    "call",
    [
        lambda f: ProblemParams(1e-308, 1e308),
        lambda f: ProblemParams(1e-308, 10**308),
        lambda f: ConeBounds(1e-308, 1e308, 1.0, 10.0),
        lambda f: NonlinearProblem(f, 1e308),
        lambda f: GridFunction(1e308, np.zeros(3)),
        lambda f: GridFunction.from_callable(f, 1e308, 8),
    ],
    ids=["ProblemParams-T", "ProblemParams-int-T", "ConeBounds-T", "NonlinearProblem-T", "GridFunction-T", "from_callable-T"],
)
def test_a_half_length_whose_2T_overflows_is_rejected(call):
    # accepted before: grids -T + (2T/n)*arange held NaN and inf, and Kernel.g gave NaN
    f, calls = counting()
    with pytest.raises(ValueError, match=r"^2T, the length of \[-T, T\], must be finite$"):
        call(f)
    assert calls == []


def test_the_largest_half_lengths_with_a_finite_2T_are_accepted():
    T = np.finfo(float).max / 2
    assert ProblemParams(1e-308, T).T == NonlinearProblem(lambda t, y, x: 0 * x, T).T == GridFunction(T, np.zeros(3)).T
    assert np.array_equal(GridFunction(T, np.zeros(3)).grid(), [-T, 0.0, T])


def test_cli_rejects_a_half_length_whose_2T_overflows(capsys):
    # exited 2 with OutOfDomain before, though no point was given
    assert run(["solve", "--m", "1e-308", "--T", "1e308", "--h", "zero", "--n", "2", "--n-quad", "8"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"error": "ValueError", "message": "2T, the length of [-T, T], must be finite"}
    assert captured.out == ""


@pytest.mark.parametrize("guess, name", [(("0.1", "0.1"), "guess[0]"), ((0.1, "0.1"), "guess[1]")])
def test_a_guess_of_numeric_strings_is_not_parsed(guess, name):
    f, calls = counting()
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be a real scalar, got str$"):
        shoot_periodic(NonlinearProblem(f, 1.0), guess=guess, n_steps=10)
    assert calls == []


def test_every_public_real_parameter_has_a_row():
    found = public_parameters(MODULES, REAL_NAMES)
    assert found, "the collector found no real parameter at all"
    assert sorted(found - set(REAL_ROWS)) == []


@pytest.mark.parametrize("c", [BIG, math.nan, math.inf], ids=["big-int", "nan", "inf"])
def test_a_non_finite_logistic_c_is_rejected(c):
    with pytest.raises(ValueError, match="^c must be finite$"):
        logistic_family_solution(c, np.linspace(-1.0, 1.0, 11))


def _isfinite_on_own_arguments(source):
    """(function, argument) for each math.isfinite call, outside check_real_scalar, on a parameter or a self. field."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name == "check_real_scalar":
            continue
        a = node.args
        own = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p is not None}
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call) and ast.unparse(call.func) == "math.isfinite" and call.args):
                continue
            arg = call.args[0]
            if isinstance(arg, ast.Name) and arg.id in own or isinstance(arg, ast.Attribute) and ast.unparse(arg.value) == "self":
                hits.append((node.name, ast.unparse(arg)))
    return hits


def test_the_isfinite_guard_sees_a_parameter_and_a_field():
    source = "def f(x, y):\n    return math.isfinite(x) and math.isfinite(x + y)\n\nclass C:\n    def g(self):\n        return math.isfinite(self.T)\n"
    assert _isfinite_on_own_arguments(source) == [("f", "x"), ("g", "self.T")]


@pytest.mark.parametrize("path", sorted(Path(refleq.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_only_check_real_scalar_tests_an_argument_for_finiteness(path):
    assert _isfinite_on_own_arguments(path.read_text()) == []
