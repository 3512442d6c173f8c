"""Command-line front end: every capability with reproducible file outputs.

Exit codes: 0 success, 1 argument/validation failure or an unwritable
output, 2 numerical failure (resonance, no convergence, ...) with a
machine-readable JSON object on stderr; a failing command writes no output.
All computations are deterministic; identical invocations produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import stat
import sys
from dataclasses import asdict

import numpy as np

from . import catalog, cone, kernel, linsolve, monotone, reduce
from .errors import BadWindow, RefleqError
from .kernel import Kernel, ProblemParams


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _json_output(obj, path: str | None):
    text = _json(obj)
    return path, lambda fh: fh.write(text)


def _write_outputs(outputs):
    """Write each (path, write) output; write(fh) writes it to an open text file.

    A target that is missing or a regular file (after symlinks) is written
    to a temporary file beside it, which takes the old file's mode and, where
    permitted, its owner.  Any other target (a device, a FIFO) is opened and
    written in place once every temporary file is complete, and only then do
    the temporary files replace their targets; stdout (path None) comes
    last.  So a failure before the replacements, the usual kind, changes no
    target and prints nothing.  Two missing or regular targets that resolve
    to one file raise ValueError before any file is opened.
    """
    staged, direct = [], []  # (temporary file, target, path as given); (path, write)
    regular = {}  # target -> (path as given, write, stat or None)
    try:
        for path, write in outputs:
            if path is None:
                continue
            try:
                old = os.stat(path)
            except FileNotFoundError:
                old = None
            if old is not None and not stat.S_ISREG(old.st_mode):
                direct.append((path, write))
                continue
            target = os.path.realpath(path)
            if target in regular:
                raise ValueError(f"outputs {regular[target][0]!r} and {path!r} name one file")
            regular[target] = path, write, old
        for i, (target, (path, write, old)) in enumerate(regular.items()):
            tmp = f"{target}.{os.getpid()}.{i}.tmp"
            try:
                fh = open(tmp, "x", encoding="utf-8")
            except OSError as exc:  # the error names the target, not the temporary file
                raise type(exc)(exc.errno, exc.strerror, path) from None
            staged.append((tmp, target, path))
            with fh:
                write(fh)
            if old is not None:
                os.chmod(tmp, stat.S_IMODE(old.st_mode))
                with contextlib.suppress(OSError):
                    os.chown(tmp, old.st_uid, old.st_gid)
        for path, write in direct:
            with open(path, "w", encoding="utf-8") as fh:
                write(fh)
        while staged:
            tmp, target, path = staged[0]
            try:
                os.replace(tmp, target)
            except OSError as exc:
                raise type(exc)(exc.errno, exc.strerror, path) from None
            staged.pop(0)
    except BaseException:
        for tmp, _, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise
    for path, write in outputs:
        if path is None:
            write(sys.stdout)


class _Parser(argparse.ArgumentParser):
    # argparse reads only -1 and -.5 as negative numbers, so -1e-3 or -inf
    # after a flag would be taken for an option
    _NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_NUMBER

    # argparse prints usage and exits with 2 on bad flags; the contract
    # reserves 2 for numerical failures and wants one error JSON on stderr
    def error(self, message):
        sys.stderr.write(_json({"error": "ArgumentError", "message": f"{self.prog}: {message}"}))
        raise SystemExit(1)


@functools.cache  # the parser holds no state between calls, so one serves every run
def _build_parser() -> _Parser:
    p = _Parser(prog="refleq", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    # flags declared alike in several commands; parents= puts them first in each
    coefficients = _Parser(add_help=False)
    coefficients.add_argument("--m", type=float, required=True)
    coefficients.add_argument("--T", type=float, required=True)
    output = _Parser(add_help=False)
    output.add_argument("--out", default=None)

    k = sub.add_parser("kernel", help="dump a kernel surface as CSV t,s,value", parents=[coefficients, output])
    k.add_argument("--grid", type=int, default=101)
    k.add_argument("--which", choices=["G", "Gbar"], default="Gbar")

    s = sub.add_parser("sign", help="sign classification of the reflection kernel", parents=[coefficients, output])
    s.add_argument("--grid", type=int, default=201)

    sub.add_parser("resonance", help="eigenvalue / resonance verdict", parents=[coefficients, output])

    so = sub.add_parser("solve", help="solve the linear problem; CSV solution + residual JSON", parents=[coefficients])
    so.add_argument("--h", required=True, help="forcing id (const:<v>, zero, cos, sin, cos_minus_sin)")
    so.add_argument("--lambda", dest="lam", type=float, default=0.0, help="boundary jump x(-T)-x(T)")
    so.add_argument("--n", type=int, default=1000, help="output grid subintervals (even)")
    so.add_argument("--n-quad", type=int, default=2000)
    so.add_argument("--out", default=None, help="solution CSV path (stdout if omitted)")
    so.add_argument("--residual-out", default=None, help="residual JSON path (stdout if omitted)")

    c = sub.add_parser("compare", help="pointwise ordering of two coefficients", parents=[output])
    c.add_argument("--m1", type=float, required=True)
    c.add_argument("--m2", type=float, required=True)
    c.add_argument("--T", type=float, required=True)
    c.add_argument("--h", default="const:1")
    c.add_argument("--n", type=int, default=200)
    c.add_argument("--grid", type=int, default=201)

    rd = sub.add_parser("reduce", help="integrate a reduced system and filter the result")
    rd.add_argument("--example", choices=["e-ex", "sinh"], required=True)
    rd.add_argument("--mode", choices=["periodic", "ivp"], default=None, help="default: periodic for e-ex, ivp for sinh")
    rd.add_argument("--T", type=float, default=1.0)
    rd.add_argument("--x0", type=float, default=None, help="initial value (ivp mode, default 0.5)")
    rd.add_argument("--guess", type=float, nargs=2, default=None, metavar=("A", "B"), help="periodic mode, default 0 0")
    rd.add_argument("--steps", type=int, default=2000)
    rd.add_argument("--tol", type=float, default=1e-8, help="filter tolerance")
    rd.add_argument("--out", default=None, help="trajectory CSV path (stdout if omitted)")
    rd.add_argument("--verdict-out", default=None, help="filter verdict JSON path")

    it = sub.add_parser("iterate", help="monotone lower/upper iteration", parents=[output])
    it.add_argument("--example", choices=["exa3"], required=True)
    it.add_argument("--lambda", dest="lam", type=float, default=0.1)
    it.add_argument("--m", type=float, default=math.pi / 4)
    it.add_argument("--T", type=float, default=1.0)
    it.add_argument("--n", type=int, default=256)
    it.add_argument("--tol", type=float, default=1e-8)
    it.add_argument("--max-iters", type=int, default=60)

    ex = sub.add_parser("exists", help="cone existence hypothesis checks", parents=[output])
    ex.add_argument("--example", choices=["exa2"], required=True)
    ex.add_argument("--m", type=float, default=0.5)
    ex.add_argument("--T", type=float, default=1.0)
    ex.add_argument("--r", type=float, default=None)
    ex.add_argument("--R", type=float, default=None)
    ex.add_argument("--cone", choices=["positive", "negative"], default="positive")
    ex.add_argument("--sweep", action="store_true", help="scan a log-spaced (r, R) lattice")
    ex.add_argument("--branch", type=int, choices=[1, 2], default=None)
    ex.add_argument("--density", type=int, default=None, help=f"lattice points per axis (default {cone.SAMPLE_DENSITY}; not in asymptotic mode)")
    return p


def _cmd_kernel(args) -> list:
    if args.grid < 2:
        raise ValueError("grid must be >= 2")
    kernel.check_lattice_size("grid", args.grid, 2)
    kern = Kernel(ProblemParams(args.m, args.T))
    kernel.require_nonresonant(kern.params)
    u = np.linspace(-args.T, args.T, args.grid)
    tt, ss = np.meshgrid(u, u, indexing="ij")
    vals = kern.g(tt, ss) if args.which == "G" else kern.gbar(tt, ss)
    return [(args.out, lambda fh: linsolve.write_csv(fh, ["t", "s", "value"], tt, ss, vals))]


def _cmd_sign(args) -> list:
    report = kernel.classify_sign(ProblemParams(args.m, args.T), grid_n=args.grid)
    return [_json_output(asdict(report), args.out)]


def _cmd_resonance(args) -> list:
    res = kernel.check_resonance(ProblemParams(args.m, args.T))
    return [_json_output({"resonant": res.resonant, "k": res.k, "alpha": args.m * args.T}, args.out)]


def _cmd_solve(args) -> list:
    problem = linsolve.ReflectionProblem(ProblemParams(args.m, args.T), catalog.forcing(args.h), lam=args.lam)
    u = linsolve.solve_grid(problem, n=args.n, n_quad=args.n_quad)
    res = linsolve.residual(problem, u)
    return [(args.out, u.to_csv), _json_output({"sup_residual": res}, args.residual_out)]


def _cmd_compare(args) -> list:
    if args.grid < 2:
        raise ValueError("grid must be >= 2")
    kernel.check_lattice_size("grid", args.grid, 2)
    h = catalog.forcing(args.h)
    T = args.T
    u1 = linsolve.solve_grid(linsolve.ReflectionProblem(ProblemParams(args.m1, T), h), n=args.n)
    u2 = linsolve.solve_grid(linsolve.ReflectionProblem(ProblemParams(args.m2, T), h), n=args.n)
    g = np.linspace(-T, T, args.grid)
    gap_kernel = Kernel(ProblemParams(args.m1, T)).gbar(g[:, None], g) - Kernel(ProblemParams(args.m2, T)).gbar(g[:, None], g)
    gap_solution = u1.values - u2.values
    summary = {
        "solution_gap_min": float(np.min(gap_solution)),
        "solution_gap_max": float(np.max(gap_solution)),
        "kernel_gap_min": float(np.min(gap_kernel)),
        "ordering_holds": bool(np.all(gap_solution > 0) and np.all(gap_kernel > 0)),
    }
    return [_json_output(summary, args.out)]


def _cmd_reduce(args) -> list:
    mode = args.mode or ("ivp" if args.example == "sinh" else "periodic")
    if args.example == "sinh" and mode == "periodic":
        raise ValueError("--example sinh runs only in ivp mode")
    if args.guess is not None and mode != "periodic":
        raise ValueError("--guess applies only in periodic mode")
    if args.x0 is not None and mode != "ivp":
        raise ValueError("--x0 applies only in ivp mode")
    x0 = 0.5 if args.x0 is None else args.x0
    f = (lambda t, y, x: math.sinh(y)) if args.example == "sinh" else catalog.product_nonlinearity
    problem = reduce.NonlinearProblem(f=f, T=args.T)
    if mode == "periodic":
        sol = reduce.shoot_periodic(problem, guess=tuple(args.guess or (0.0, 0.0)), n_steps=args.steps)
    else:
        sol = reduce.integrate_ivp(problem, x0, n_steps=args.steps)
    verdict = asdict(reduce.filter_reflection_solution(sol, tol=args.tol, periodic=mode == "periodic"))
    if args.example == "sinh":  # after the integration, which rejects an x0 whose sinh overflows
        verdict["second_order_initial_state"] = list(reduce.reduce_second_order(**reduce.sinh_fixture()).initial_state(x0))
    return [(args.out, sol.to_csv), _json_output(verdict, args.verdict_out)]


def _cmd_iterate(args) -> list:
    T = args.T
    f = catalog.hyperbolic_lag(args.lam)
    lower = linsolve.GridFunction.from_callable(lambda t: T, T, args.n)
    upper = linsolve.GridFunction.from_callable(lambda t: -T, T, args.n)
    bracket = monotone.LowerUpperPair(lower, upper, monotone.BracketOrdering.LOWER_ABOVE_UPPER)
    report = monotone.iterate(f, bracket, m=args.m, max_iters=args.max_iters, tol=args.tol)
    return [_json_output(report.to_dict(), args.out)]


def _cmd_exists(args) -> list:
    if (args.r is None) != (args.R is None):
        raise ValueError("--r and --R must be given together")
    if args.sweep and args.r is not None:
        raise ValueError("--sweep scans its own (r, R) lattice and takes no --r or --R")
    if args.branch is not None and not args.sweep:
        raise ValueError("--branch applies only with --sweep")
    asymptotic = not args.sweep and args.r is None
    if asymptotic and args.density is not None:
        raise ValueError("--density applies only with --sweep or --r and --R")
    density = cone.SAMPLE_DENSITY if args.density is None else args.density
    f = catalog.NONLINEARITIES[args.example]
    # --cone negative checks the m < 0 theorem; the positive cone keeps to m > 0
    params = ProblemParams(args.m if args.cone == "positive" else -abs(args.m), args.T)
    if params.m < 0 and args.cone == "positive":
        raise BadWindow(f"m={args.m} outside (0, pi/(4T))")
    if args.sweep:
        pair, report = cone.sweep_annulus(f, params, cone=args.cone, branch=args.branch, sample_density=density)
        payload = {"admissible_pair": list(pair) if pair else None, "report": asdict(report) if report else None}
        return [_json_output(payload, args.out)]
    if asymptotic:
        report = cone.check_asymptotic_corollary(f, args.m, args.T, cone=args.cone)
    else:
        check = cone.check_positive_existence if args.cone == "positive" else cone.check_negative_existence
        report = check(f, cone.ConeBounds(params.m, params.T, args.r, args.R), sample_density=density)
    return [_json_output(asdict(report), args.out)]


_HANDLERS = {
    "kernel": _cmd_kernel,
    "sign": _cmd_sign,
    "resonance": _cmd_resonance,
    "solve": _cmd_solve,
    "compare": _cmd_compare,
    "reduce": _cmd_reduce,
    "iterate": _cmd_iterate,
    "exists": _cmd_exists,
}


def run(argv) -> int:
    """Run one refleq command on argv (without the program name) and return its exit code.

    The argument parser is built once per process, on the first call.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # overflow in a forcing or nonlinearity must not print numpy warnings:
        # the library's finiteness checks reject such results with one error JSON
        with np.errstate(all="ignore"):
            outputs = _HANDLERS[args.cmd](args)
        _write_outputs(outputs)
    except (ValueError, KeyError, OSError, MemoryError, RefleqError) as exc:
        # str() of a KeyError is the repr of its key, quotes included
        message = str(exc.args[0]) if isinstance(exc, KeyError) else str(exc)
        sys.stderr.write(_json({"error": type(exc).__name__, "message": message}))
        return 2 if isinstance(exc, RefleqError) else 1
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
