#!/usr/bin/env python3
"""Time the single-call baseline paths under the tracer and print a table.

    python3 perfbench/baseline.py

Each row is one call, timed by its root span, next to the work counters the
same trace records (kernel points, forcing points, sweeps, integrations).
"""

import math
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from refleq import catalog, kernel, linsolve, reduce  # noqa: E402

COUNTERS = ("kernel.points", "linsolve.forcing_points", "monotone.sweeps", "reduce.integrations")


def _solve_grid(n):
    problem = linsolve.ReflectionProblem(kernel.ProblemParams(1.0, 1.0), catalog.forcing("const:1"))
    return lambda: linsolve.solve_grid(problem, n=n)


def _exa3():
    T, m, lam = workloads.EXA3
    return lambda: workloads.monotone_call(T, m)(catalog.hyperbolic_lag(lam))


def _rk4():
    rhs = reduce.reduce_system(reduce.NonlinearProblem(f=catalog.product_nonlinearity, T=1.0)).rhs
    return lambda: reduce.integrate_rk4(rhs, -1.0, 1.0, (0.1, 0.1), 2000)


def _shoot(guess):
    problem = reduce.NonlinearProblem(f=catalog.product_nonlinearity, T=1.0)
    return lambda: reduce.shoot_periodic(problem, guess=guess)


CASES = (
    ("solve_grid n=200", _solve_grid(200)),
    ("solve_grid n=1000 (CLI default)", _solve_grid(1000)),
    ("257-point solver build", lambda: linsolve.PeriodicGreenSolver(
        kernel.ProblemParams(math.pi / 4, 1.0), np.linspace(-1.0, 1.0, 257), n_quad=1024)),
    ("exa3 iterate, 60 sweeps", _exa3()),
    ("RK4, 2000 steps", _rk4()),
    ("shoot_periodic from (0, 0)", _shoot((0.0, 0.0))),
    ("shoot_periodic from (1e-3, -1e-3)", _shoot((1e-3, -1e-3))),
    ("kernel_bounds (201, 2)", lambda: kernel.kernel_bounds(kernel.ProblemParams(0.5, 1.0))),
)


def main():
    print("| Path | Time | " + " | ".join(COUNTERS) + " |")
    print("|---|---|" + "---|" * len(COUNTERS))
    for label, call in CASES:
        with tracing.Tracer() as tracer:
            tracer.op = 0
            sid = tracer.open("op.baseline")
            call()
            tracer.close(sid)
        root = tracer.spans[sid]
        metrics = tracing.layer_metrics(tracer.spans, 0.0)
        counts = " | ".join(f"{metrics[c]['value']:,}" for c in COUNTERS)
        print(f"| {label} | {1000 * (root.end - root.start):.0f} ms | {counts} |")


if __name__ == "__main__":
    main()
