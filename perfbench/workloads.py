"""Seeded inputs, operations and oracles for the four benchmark workloads.

A run is a whole number of decks.  A deck is a fixed mix of operation
kinds; the continuous parameters of all the run's operations are drawn from
the seed by Latin-hypercube sampling, so each run covers the parameter
ranges evenly and the inputs add little to the run-to-run spread.  An
operation is one library call the workload's user waits for; its oracle
check runs outside the timed call.

Every library function is looked up on its module at call time, so the
tracer can wrap it where the callers look it up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from refleq import catalog, cli, kernel, linsolve, monotone, reduce

HERE = Path(__file__).resolve().parent
CLI_REFERENCE = HERE / "cli_reference.json"

WORKLOADS = ("linear", "monotone", "shooting", "cli-readme")
#: wall time of one deck at the seed commit on the reference machine (2-vCPU
#: Xeon VM, Python 3.11, numpy 2.4): a run of S seconds runs round(S / this)
#: decks, so every run of a seed performs the same operations
DECK_SECONDS = {"linear": 5.0, "monotone": 7.0, "shooting": 16.0, "cli-readme": 4.8}


class OracleMismatch(Exception):
    """An operation returned a result that its oracle rejects."""


@dataclass
class Op:
    """One timed call plus the oracle that scores its result.

    check(result) returns the op's accuracy figure and raises
    OracleMismatch when the result is wrong.  `fn` is the forcing or
    nonlinearity the benchmark passes in (None when the library resolves
    its own), so the tracer can wrap it.  `spec` holds the drawn inputs.
    """

    kind: str
    call: Callable[[Callable | None], object]
    check: Callable[[object], float]
    fn: Callable | None = None
    spec: object = None

    def run(self, wrap=None):
        fn = self.fn if wrap is None or self.fn is None else wrap(self.fn)
        return self.call(fn)


def _strata(rng: np.random.Generator, k: int, dims: int) -> np.ndarray:
    """k points in [0, 1)^dims with exactly one point in each 1/k slab of every axis."""
    perms = np.argsort(rng.random((dims, k)), axis=1).T
    return (perms + rng.random((k, dims))) / k


def _require(cond: bool, message: str):
    if not cond:
        raise OracleMismatch(message)


# -- linear: manufactured solutions of x'(t) + m x(-t) = h(t) -----------------

#: |m T - k pi| >= ALPHA_MARGIN keeps 1/|sin(mT)| <= 10
ALPHA_MARGIN = 0.1
LINEAR_N_QUAD = 2000


@dataclass(frozen=True)
class Manufactured:
    """x(t) = a0 + a1 t + a2 t^2 + a3 t^3 + b cos(w t) + c sin(w t) with its forcing.

    h = x' + m x(-t) and lam = x(-T) - x(T) are in closed form, once with
    numpy (vectorized) and once with `math` (scalar-only).
    """

    m: float
    T: float
    w: float
    a: tuple
    b: float
    c: float

    def x(self, t):
        a0, a1, a2, a3 = self.a
        return a0 + t * (a1 + t * (a2 + t * a3)) + self.b * np.cos(self.w * t) + self.c * np.sin(self.w * t)

    def dx(self, t):
        _, a1, a2, a3 = self.a
        w = self.w
        return a1 + t * (2 * a2 + 3 * a3 * t) - self.b * w * np.sin(w * t) + self.c * w * np.cos(w * t)

    def h(self, t):
        return self.dx(t) + self.m * self.x(-t)

    def h_scalar(self):
        """The same forcing from `math` only, so it rejects arrays: a cubic plus one harmonic."""
        a0, a1, a2, a3 = self.a
        b, c, w, m = self.b, self.c, self.w, self.m
        p0, p1, p2, p3 = a1 + m * a0, 2 * a2 - m * a1, 3 * a3 + m * a2, -m * a3
        kc, ks = c * w + m * b, -b * w - m * c
        cos, sin = math.cos, math.sin

        def h(t):
            return p0 + t * (p1 + t * (p2 + t * p3)) + kc * cos(w * t) + ks * sin(w * t)

        return h

    @property
    def lam(self) -> float:
        return float(self.x(-self.T) - self.x(self.T))

    def third_derivative_bound(self) -> float:
        return 6 * abs(self.a[3]) + (abs(self.b) + abs(self.c)) * self.w**3


def _alpha(u: float) -> float:
    """Map u in [0, 1) onto |alpha| in [0.1, pi - 0.1] U [pi + 0.1, 2 pi - 0.1]."""
    width = math.pi - 2 * ALPHA_MARGIN
    seg, frac = divmod(u * 2, 1.0)
    return seg * math.pi + ALPHA_MARGIN + frac * width


def linear_ops(rng: np.random.Generator, decks: int) -> list[Op]:
    # n = 1000 is the CLI default and dominates; the scalar-only forcing runs
    # on a fixed quarter of the ops, all at n = 200, where it costs less
    # than an n = 1000 op, so the median and the tail both fall inside the
    # n = 1000 cluster
    kinds = (["n200-scalar"] * 3 + ["n200-vector"] + ["n1000-vector"] * 8) * decks
    u = _strata(rng, len(kinds), 4)
    signs = rng.permutation([1.0, -1.0] * (len(kinds) // 2))
    ops = []
    for kind, (uT, ua, uw, _), sign in zip(kinds, u, signs):
        T = 0.5 + 1.5 * uT
        sol = Manufactured(
            m=sign * _alpha(ua) / T,
            T=T,
            w=0.5 + 3.5 * uw,
            a=tuple(rng.uniform(-1.0, 1.0, 4)),
            b=float(rng.uniform(-1.0, 1.0)),
            c=float(rng.uniform(-1.0, 1.0)),
        )
        n = 200 if kind.startswith("n200") else 1000
        forcing = sol.h_scalar() if kind.endswith("scalar") else sol.h
        ops.append(Op(kind, _linear_call(sol, n), _linear_check(sol, n), fn=forcing, spec=sol))
    return [ops[i] for i in rng.permutation(len(ops))]


def _linear_call(sol: Manufactured, n: int):
    def call(h):
        problem = linsolve.ReflectionProblem(kernel.ProblemParams(sol.m, sol.T), h, lam=sol.lam)
        u = linsolve.solve_grid(problem, n=n, n_quad=LINEAR_N_QUAD)
        return u, linsolve.residual(problem, u)

    return call


def _linear_check(sol: Manufactured, n: int):
    def check(result) -> float:
        u, res = result
        t = np.linspace(-sol.T, sol.T, n + 1)
        _require(u.values.shape == t.shape, "solution has the wrong grid")
        exact = sol.x(t)
        err = float(np.max(np.abs(u.values - exact)) / max(1.0, np.max(np.abs(exact))))
        _require(err <= 1e-8, f"solution error {err:.3e} against the manufactured x")
        # centered differences are second order: |defect| <= h^2/6 * |x'''|
        step = 2 * sol.T / n
        bound = 2 * step**2 / 6 * sol.third_derivative_bound() + 1e-6
        _require(math.isfinite(res) and res <= bound, f"residual {res:.3e} above {bound:.3e}")
        return err

    return check


# -- monotone: lam*sinh(t - y) between the constant bracket (T, -T) ---------------

MONOTONE_ARGS = dict(n_quad=1024, max_iters=60, tol=1e-8)
MONOTONE_N = 256
#: the README's `iterate --example exa3` point, included once per deck of six
EXA3 = (1.0, math.pi / 4, 0.1)


def monotone_window(T: float, m: float, lam: float) -> bool:
    """m in [pi/(8T), pi/(4T)] and lam in (0, m / cosh(2T)]: the inverse-positive window
    in which lam*sinh(t - y) meets the one-sided Lipschitz condition."""
    return math.pi / (8 * T) <= m <= math.pi / (4 * T) and 0 < lam <= m / math.cosh(2 * T)


def monotone_points(rng: np.random.Generator, k: int) -> list[tuple]:
    """k (T, m, lam) points spread over the window by Latin-hypercube sampling."""
    points = []
    for uT, um, ul in _strata(rng, k, 3):
        T = 0.5 + uT
        m = math.pi / (8 * T) * (1.0 + um)
        points.append((T, m, (1.0 - ul) * m / math.cosh(2 * T)))
    return points


def monotone_ops(rng: np.random.Generator, decks: int) -> list[Op]:
    points = [("exa3", EXA3)] * decks + [("drawn", p) for p in monotone_points(rng, 5 * decks)]
    ops = [
        Op(kind, monotone_call(T, m), _monotone_check(T, m, lam), fn=catalog.hyperbolic_lag(lam), spec=(T, m, lam))
        for kind, (T, m, lam) in points
    ]
    return [ops[i] for i in rng.permutation(len(ops))]


def monotone_call(T: float, m: float, n: int = MONOTONE_N, **args):
    """iterate(f, ...) from the constant bracket (T, -T) on n intervals; args override MONOTONE_ARGS."""

    def call(f):
        lower = linsolve.GridFunction.from_callable(lambda t: T, T, n)
        upper = linsolve.GridFunction.from_callable(lambda t: -T, T, n)
        bracket = monotone.LowerUpperPair(lower, upper, monotone.BracketOrdering.LOWER_ABOVE_UPPER)
        return monotone.iterate(f, bracket, m=m, **dict(MONOTONE_ARGS, **args))

    return call


def _defect(values: np.ndarray, T: float, lam: float) -> float:
    """max |x' - lam sinh(t - x(-t))| by centered differences, plus |x(-T) - x(T)|."""
    t = np.linspace(-T, T, len(values))
    dv = (values[2:] - values[:-2]) / (2 * (t[1] - t[0]))
    f = lam * np.sinh(t[1:-1] - values[::-1][1:-1])
    return float(max(np.max(np.abs(dv - f)), abs(values[0] - values[-1])))


def _monotone_check(T: float, m: float, lam: float):
    def check(report) -> float:
        lo = [g.values for g in report.iterates_lower]
        up = [g.values for g in report.iterates_upper]
        slack = 1e-10
        _require(all(np.all(b - a <= slack) for a, b in zip(lo, lo[1:])), "lower sequence increased")
        _require(all(np.all(a - b <= slack) for a, b in zip(up, up[1:])), "upper sequence decreased")
        _require(np.all(up[-1] - lo[-1] <= slack), "sequences crossed")
        _require(np.all(lo[-1] <= T + slack) and np.all(up[-1] >= -T - slack), "iterate left the bracket")
        gaps = report.gap_history
        _require(all(b <= a + slack for a, b in zip(gaps, gaps[1:])), "gap history increased")
        for name, values, reported in (("lower", lo[-1], report.residual_lower), ("upper", up[-1], report.residual_upper)):
            mine = _defect(values, T, lam)
            _require(abs(mine - reported) <= 1e-9 + 1e-6 * mine, f"{name} residual {reported:.6e} != oracle {mine:.6e}")
        return max(report.residual_lower, report.residual_upper)

    return check


# -- shooting: the reduced (y, x) system --------------------------------------------

SHOOT_STEPS = 2000
SHOOT_T = 1.0


def product(t, y, x):
    """f = x*y: its system has the logistic family of spurious periodic solutions."""
    return x * y


def regular_rhs(c: float, m: float) -> Callable:
    """f = c - m*y: a linear problem whose unique periodic solution is x = c/m."""

    def f(t, y, x):
        return c - m * y

    return f


def regular_points(rng: np.random.Generator, k: int) -> list[tuple]:
    """k (c, m) pairs with c in [-1, 1] and m in [0.5, 2] (T = 1, so far from resonance)."""
    return [(2 * uc - 1.0, 0.5 + 1.5 * um) for uc, um in _strata(rng, k, 2)]


def shooting_ops(rng: np.random.Generator, decks: int) -> list[Op]:
    # a deck is 8 singular ops (f = x*y, root x = 0) and 4 regular ones;
    # guesses are uniform in [-0.5, 0.5]^2, and Newton stalls only on the
    # measure-zero line b = -a < 0, which continuous draws do not hit
    guesses = _strata(rng, 8 * decks, 2) - 0.5
    ops = [Op("singular", _shoot_call(tuple(g)), _shoot_check(0.0, 1e-4), fn=product, spec=(tuple(g), 0.0)) for g in guesses]
    regular = regular_points(rng, 4 * decks)
    for (c, m), g in zip(regular, _strata(rng, len(regular), 2) - 0.5):
        ops.append(Op("regular", _shoot_call(tuple(g)), _shoot_check(c / m, 1e-8), fn=regular_rhs(c, m), spec=(tuple(g), c / m)))
    return [ops[i] for i in rng.permutation(len(ops))]


def _shoot_call(guess: tuple):
    def call(f):
        problem = reduce.NonlinearProblem(f=f, T=SHOOT_T)
        sol = reduce.shoot_periodic(problem, guess=guess, n_steps=SHOOT_STEPS)
        return sol, reduce.filter_reflection_solution(sol)

    return call


def _shoot_check(x_exact: float, tol: float):
    def check(result) -> float:
        sol, verdict = result
        err = float(max(np.max(np.abs(sol.x_values - x_exact)), np.max(np.abs(sol.y_values - x_exact))))
        _require(verdict.genuine, "filter rejected the trajectory")
        _require(err <= tol, f"trajectory error {err:.3e} against x = {x_exact:.6g}")
        return err

    return check


# -- cli-readme: the README's commands through refleq.cli.run ---------------------

#: (id, argv); output file names are relative to the run's temp directory
CLI_COMMANDS = (
    ("sign", ["sign", "--m", "0.5", "--T", "1"]),
    ("kernel", ["kernel", "--m", "0.7853981633974483", "--T", "1", "--grid", "101", "--out", "surface.csv"]),
    ("solve", ["solve", "--m", "1", "--T", "1", "--h", "const:1", "--n", "1000", "--out", "u.csv", "--residual-out", "r.json"]),
    ("compare", ["compare", "--m1", "0.3", "--m2", "0.7", "--T", "1", "--h", "const:1"]),
    ("reduce", ["reduce", "--example", "e-ex", "--mode", "periodic", "--out", "traj.csv", "--verdict-out", "v.json"]),
    ("iterate", ["iterate", "--example", "exa3", "--lambda", "0.1", "--max-iters", "60"]),
    ("exists", ["exists", "--example", "exa2", "--m", "0.5"]),
    ("exists-annulus", ["exists", "--example", "exa2", "--m", "0.5", "--r", "0.1", "--R", "10"]),
    ("exists-sweep", ["exists", "--example", "exa2", "--m", "0.5", "--sweep"]),
)
_OUT_FLAGS = ("--out", "--residual-out", "--verdict-out")
#: CSV outputs are stored in the reference as every k-th row plus the last
CSV_STRIDE = 50
#: a number's deviation from its reference is |v - ref| / max(|ref|, REL_FLOOR):
#: relative, except for roundoff-level values (a residual of 1e-13, a kernel
#: value of 1e-16), whose absolute change counts against REL_FLOOR
REL_FLOOR = 1e-6
#: the deviation above which an output is wrong
MAX_DEVIATION = 1e-6


def _argv(argv: list, tmpdir: Path) -> list:
    return [str(tmpdir / a) if i and argv[i - 1] in _OUT_FLAGS else a for i, a in enumerate(argv)]


def _outputs(argv: list) -> list:
    """Output names of a command in order; 'stdout' when a file flag is absent."""
    files = [argv[i + 1] for i, a in enumerate(argv) if a in _OUT_FLAGS]
    return files or ["stdout"]


def run_cli(argv: list, tmpdir: Path) -> dict:
    """Run one command in-process; returns {'code': int, 'outputs': {name: text}}."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(_argv(argv, tmpdir))
    outputs = {}
    for name in _outputs(argv):
        if name == "stdout":
            outputs[name] = stdout.getvalue()
        else:
            path = tmpdir / name
            outputs[name] = path.read_text(encoding="utf-8")
            os.remove(path)
    return {"code": code, "outputs": outputs, "stderr": stderr.getvalue()}


def _leaves(name: str, text: str) -> dict:
    """An output's content as {'numbers': [...], 'labels': [...]}.

    For JSON, the numeric leaves in key order, and every other leaf
    (verdict strings, booleans, None) with its key path.  For CSV, the
    strided rows' numbers, and the header as the only label.
    """
    if name.endswith(".csv"):
        header, *rows = text.splitlines()
        rows = rows[::CSV_STRIDE] + rows[-1:]
        return {"numbers": [float(v) for r in rows for v in r.split(",")], "labels": [header]}
    numbers, labels = [], []

    def walk(node, path):
        if isinstance(node, dict):
            for k in sorted(node):
                walk(node[k], f"{path}/{k}")
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{path}/{i}")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            numbers.append(float(node))
        else:
            labels.append([path, node])

    walk(json.loads(text), "")
    return {"numbers": numbers, "labels": labels}


def cli_leaves(result: dict) -> dict:
    return {name: _leaves(name, text) for name, text in result["outputs"].items()}


def deviation(values, reference) -> float:
    """Largest per-value deviation of values from reference (see REL_FLOOR)."""
    v, ref = np.asarray(values, dtype=float), np.asarray(reference, dtype=float)
    if not len(ref):
        return 0.0
    return float(np.max(np.abs(v - ref) / np.maximum(np.abs(ref), REL_FLOOR)))


def _exact_errors(cid: str, result: dict) -> float:
    """Error against closed-form answers, where the command has one.

    solve: x' + x(-t) = 1 is solved by x = 1.  compare: both constant
    solutions are 1/m, so the solution gap is 1/0.3 - 1/0.7 everywhere.
    reduce: the genuine periodic solution of x' = x(t) x(-t) from (0, 0) is 0.
    """
    out = result["outputs"]
    if cid == "solve":
        vals = np.array(_leaves("u.csv", out["u.csv"])["numbers"][1::2])
        return float(np.max(np.abs(vals - 1.0)))
    if cid == "compare":
        gap = 1 / 0.3 - 1 / 0.7
        d = json.loads(out["stdout"])
        return max(abs(d["solution_gap_min"] - gap), abs(d["solution_gap_max"] - gap)) / gap
    if cid == "reduce":
        rows = np.array(_leaves("traj.csv", out["traj.csv"])["numbers"]).reshape(-1, 5)
        return float(np.max(np.abs(rows[:, 1:])))
    return 0.0


def load_cli_reference() -> dict:
    return json.loads(CLI_REFERENCE.read_text(encoding="utf-8"))


def write_cli_reference(tmpdir: Path, commit: str):
    """Record every command's outputs as the reference; run once, at the commit the outputs belong to."""
    ref = {"commit": commit, "csv_stride": CSV_STRIDE}
    for cid, argv in CLI_COMMANDS:
        result = run_cli(argv, tmpdir)
        if result["code"] != 0:
            raise RuntimeError(f"{cid} exited {result['code']}: {result['stderr']}")
        ref[cid] = cli_leaves(result)
    CLI_REFERENCE.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n", encoding="utf-8")


def cli_ops(rng: np.random.Generator, decks: int, tmpdir: Path, reference: dict) -> list[Op]:
    """Each command `decks` times in seeded order; every repetition must match the run's first."""
    first: dict = {}
    order = rng.permutation(len(CLI_COMMANDS) * decks) % len(CLI_COMMANDS)
    return [Op(cid, _cli_call(argv, tmpdir), _cli_check(cid, reference, first)) for cid, argv in (CLI_COMMANDS[i] for i in order)]


def _cli_call(argv: list, tmpdir: Path):
    def call(_):
        return run_cli(argv, tmpdir)

    return call


def _cli_check(cid: str, reference: dict, first: dict):
    def check(result) -> float:
        _require(result["code"] == 0, f"{cid} exited {result['code']}: {result['stderr'].strip()}")
        _require(result["outputs"] == first.setdefault(cid, result["outputs"]), f"{cid} output differs from its first repetition")
        worst = _exact_errors(cid, result)
        for name, leaves in cli_leaves(result).items():
            ref = reference[cid][name]
            _require(leaves["labels"] == ref["labels"], f"{cid} {name}: labels differ from the seed-commit reference")
            values = leaves["numbers"]
            _require(len(values) == len(ref["numbers"]), f"{cid} {name}: {len(values)} numbers, reference has {len(ref['numbers'])}")
            dev = deviation(values, ref["numbers"])
            _require(dev <= MAX_DEVIATION, f"{cid} {name} deviates {dev:.3e} from the seed-commit reference")
            worst = max(worst, dev)
        return worst

    return check


def cli_bytes(result: dict) -> int:
    return sum(len(text.encode("utf-8")) for text in result["outputs"].values())


def ops(workload: str, seed: int, decks: int, tmpdir: Path) -> list[Op]:
    """The run's operations, in order; the same seed and deck count give the same inputs."""
    rng = np.random.default_rng(seed)
    if workload == "linear":
        return linear_ops(rng, decks)
    if workload == "monotone":
        return monotone_ops(rng, decks)
    if workload == "shooting":
        return shooting_ops(rng, decks)
    if workload == "cli-readme":
        return cli_ops(rng, decks, tmpdir, load_cli_reference())
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str, tmpdir: Path):
    """Touch each code path once at toy size so lazy set-up is not timed."""
    if workload == "linear":
        sol = Manufactured(1.0, 1.0, 1.0, (0.1, 0.2, 0.3, 0.4), 0.5, 0.6)
        for h in (sol.h, sol.h_scalar()):
            p = linsolve.ReflectionProblem(kernel.ProblemParams(1.0, 1.0), h, lam=sol.lam)
            linsolve.residual(p, linsolve.solve_grid(p, n=20, n_quad=40))
    elif workload == "monotone":
        monotone_call(1.0, math.pi / 4, n=16, n_quad=64, max_iters=2)(catalog.hyperbolic_lag(0.1))
    elif workload == "shooting":
        reduce.shoot_periodic(reduce.NonlinearProblem(f=regular_rhs(0.5, 1.0), T=1.0), n_steps=50)
    else:
        run_cli(["resonance", "--m", "1", "--T", "1"], tmpdir)
