"""Self-tests of the benchmark: oracles, input generators, counters, statistics.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import bench  # noqa: E402
import hostspeed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from refleq import reduce  # noqa: E402

SEEDS = (0, 1, 2)


def _ops(workload, seed, decks=2, tmpdir=None):
    return workloads.ops(workload, seed, decks, tmpdir or Path("."))


# -- oracles of the input generators -----------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_manufactured_forcing_is_x_prime_plus_m_x_reflected(seed):
    rng = np.random.default_rng(100 + seed)
    for op in _ops("linear", seed):
        sol = op.spec
        a0, a1, a2, a3 = (mpmath.mpf(v) for v in sol.a)

        def x(t):
            return a0 + a1 * t + a2 * t**2 + a3 * t**3 + sol.b * mpmath.cos(sol.w * t) + sol.c * mpmath.sin(sol.w * t)

        for t in rng.uniform(-sol.T, sol.T, 5):
            t = mpmath.mpf(t)
            exact = float(mpmath.diff(x, t) + sol.m * x(-t))
            scale = max(1.0, abs(exact))
            assert abs(sol.h(float(t)) - exact) <= 1e-12 * scale
            assert abs(sol.h_scalar()(float(t)) - exact) <= 1e-12 * scale
        assert abs(sol.lam - float(x(-mpmath.mpf(sol.T)) - x(mpmath.mpf(sol.T)))) <= 1e-12 * max(1.0, abs(sol.lam))
        alpha = abs(sol.m * sol.T)
        assert min(abs(alpha - k * math.pi) for k in range(4)) >= workloads.ALPHA_MARGIN - 1e-12
        assert 0.5 <= sol.T <= 2.0


def test_scalar_forcing_rejects_arrays():
    sol = _ops("linear", 0)[0].spec
    with pytest.raises(TypeError):
        sol.h_scalar()(np.linspace(-sol.T, sol.T, 9))


@pytest.mark.parametrize("seed", SEEDS)
def test_regular_shooting_roots_solve_their_system(seed):
    rng = np.random.default_rng(200 + seed)
    for op in _ops("shooting", seed):
        _, root = op.spec
        system = reduce.reduce_system(reduce.NonlinearProblem(f=op.fn, T=workloads.SHOOT_T))
        for t in rng.uniform(-workloads.SHOOT_T, workloads.SHOOT_T, 5):
            # constant (y, x) = (root, root) is a fixed point of the system, hence
            # periodic, and y(t) = x(-t) holds, so it also solves the reflection problem
            assert np.max(np.abs(system.rhs(t, np.array([root, root])))) <= 1e-15


@pytest.mark.parametrize("seed", SEEDS)
def test_monotone_points_lie_in_the_window(seed):
    points = [op.spec for op in _ops("monotone", seed, decks=3)]
    assert workloads.EXA3 in points
    for T, m, lam in points:
        assert 0.5 <= T <= 1.5
        assert workloads.monotone_window(T, m, lam)


def test_op_kind_shares_are_fixed():
    def shares(workload):
        kinds = [op.kind for op in _ops(workload, 3)]
        return {k: kinds.count(k) / len(kinds) for k in set(kinds)}

    assert shares("linear")["n200-scalar"] == 0.25
    assert shares("shooting")["singular"] == pytest.approx(2 / 3)
    assert shares("monotone")["exa3"] == pytest.approx(1 / 6)


def test_same_seed_same_inputs():
    specs = lambda seed: [repr(op.spec) for w in ("linear", "monotone", "shooting") for op in _ops(w, seed)]  # noqa: E731
    assert specs(5) == specs(5)
    assert specs(5) != specs(6)


# -- the oracles reject wrong results --------------------------------------------------


def test_linear_oracle_rejects_a_perturbed_solution():
    op = next(o for o in _ops("linear", 0) if o.kind == "n200-vector")
    u, res = op.run()
    assert op.check((u, res)) < 1e-9
    u.values[len(u.values) // 3] += 1e-6
    with pytest.raises(workloads.OracleMismatch):
        op.check((u, res))


def test_shooting_oracle_rejects_spurious_trajectories():
    op = next(o for o in _ops("shooting", 0) if o.kind == "singular")
    times = np.linspace(-1.0, 1.0, workloads.SHOOT_STEPS + 1)
    # a member of the spurious family, and one within the error tolerance of
    # x = 0 that only the filter rejects (y(t) != x(-t))
    close = reduce.SystemSolution(times, 1e-6 * np.sin(times), np.zeros_like(times))
    for spurious in (reduce.logistic_family_solution(0.5, times), close):
        with pytest.raises(workloads.OracleMismatch):
            op.check((spurious, reduce.filter_reflection_solution(spurious)))


def test_monotone_oracle_rejects_a_misreported_residual():
    op = next(o for o in _ops("monotone", 0) if o.kind == "drawn")
    report = op.run()
    assert op.check(report) == max(report.residual_lower, report.residual_upper)
    report.residual_lower *= 1.01
    with pytest.raises(workloads.OracleMismatch):
        op.check(report)


def _cli_op(kind, tmp_path):
    """A fresh op of the command: its check has seen no earlier repetition."""
    return next(o for o in _ops("cli-readme", 0, decks=1, tmpdir=tmp_path) if o.kind == kind)


def _edit_json(result, name, edit):
    data = json.loads(result["outputs"][name])
    edit(data)
    return dict(result, outputs=dict(result["outputs"], **{name: json.dumps(data)}))


def _double_leaf(node, value):
    for k, v in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(v, (dict, list)):
            _double_leaf(v, value)
        elif v == value:
            node[k] = 2 * v


def test_cli_oracle_rejects_a_changed_repetition(tmp_path):
    op = _cli_op("solve", tmp_path)
    result = op.run()
    assert op.check(result) > 0  # the quadrature error against x = 1
    changed = _edit_json(result, "r.json", lambda d: d.update(sup_residual=2 * d["sup_residual"]))
    with pytest.raises(workloads.OracleMismatch, match="repetition"):
        op.check(changed)


@pytest.mark.parametrize(
    "kind, edit",
    [
        ("sign", lambda d: d.update(classification="strictly_negative")),
        ("iterate", lambda d: d.update(converged=not d["converged"])),
        ("exists-sweep", lambda d: d["report"].update(verdict="satisfied")),
        # small numbers count relative to themselves, not to the output's largest value
        ("iterate", lambda d: d.update(residual_lower=10 * d["residual_lower"])),
        ("exists", lambda d: _double_leaf(d, 2e-06)),
    ],
)
def test_cli_oracle_rejects_output_unlike_the_reference(kind, edit, tmp_path):
    result = _cli_op(kind, tmp_path).run()
    changed = _edit_json(result, "stdout", edit)
    assert json.loads(changed["outputs"]["stdout"]) != json.loads(result["outputs"]["stdout"])
    with pytest.raises(workloads.OracleMismatch, match="reference"):
        _cli_op(kind, tmp_path).check(changed)


def test_cli_deviation_is_per_value():
    assert workloads.deviation([60.0, 6.6e-5], [60.0, 6.6e-6]) == pytest.approx(9.0)
    # a roundoff-level value is compared against REL_FLOOR, not against itself
    assert workloads.deviation([2e-13], [1e-13]) == pytest.approx(1e-7)


# -- traced counts repeat exactly ----------------------------------------------------------

REPEATING = (
    "kernel.points",
    "linsolve.forcing_points",
    "monotone.sweeps",
    "reduce.integrations",
    "reduce.rhs_evals",
    "cone.samples",
)


def _traced_counts(workload, seed, tmp_path):
    ops = workloads.ops(workload, seed, 1, tmp_path)
    with tracing.Tracer() as tracer:
        results = bench.run_ops(workload, ops, tracer)
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]
    metrics = tracing.layer_metrics(tracer.spans, 0.0)
    return {name: metrics[name]["value"] for name in REPEATING}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = _traced_counts(workload, 11, tmp_path)
    assert first == _traced_counts(workload, 11, tmp_path)
    if workload == "cli-readme":  # the only workload that reaches every layer
        assert all(first[name] > 0 for name in REPEATING), first


def test_tracer_restores_every_entry_point():
    from refleq import cli, kernel, linsolve

    before = (kernel.Kernel.gbar, linsolve.PeriodicGreenSolver.__init__, linsolve.vectorized, cli.run)
    with tracing.Tracer():
        assert kernel.Kernel.gbar is not before[0]
    assert (kernel.Kernel.gbar, linsolve.PeriodicGreenSolver.__init__, linsolve.vectorized, cli.run) == before


# -- statistics and the contract --------------------------------------------------------------


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 41))
    value, pct, n = stats.tail(values)
    assert (value, pct, n) == (30, 75.0, 40)
    assert sum(v > value for v in values) == stats.TAIL_BEYOND
    assert stats.tail([3, 1, 2]) == (3, 100.0, 3)


def test_exact_metrics_compare_seed_by_seed():
    parent = {s: 10.0 + s for s in range(10)}  # the seeds alone spread the values
    assert stats.verdict(parent, {s: v - 0.5 for s, v in parent.items()}, "higher", 0.03, exact=True)["verdict"] == "worse"
    assert stats.verdict(parent, dict(parent), "higher", 0.03, exact=True)["verdict"] == "no worse"
    assert stats.verdict(parent, {s: v + 1 for s, v in parent.items()}, "higher", 0.03, exact=True)["verdict"] == "improved"


def test_scales_follow_the_calibration_and_skip_a_spike():
    ref = hostspeed.REFERENCE_S
    cals = [ref] * 4 + [10 * ref] + [ref] * 3 + [2 * ref] * 8
    scales = hostspeed.scales(cals)
    assert len(scales) == len(cals) - 1
    assert scales[3] == scales[4] == 1.0  # the preempted calibration is outvoted
    assert scales[-1] == 0.5  # a host running at half speed


def test_err_digits_is_the_median_of_the_ops_digits():
    assert bench.err_digits([1e-10, 1e-12, 0.0]) == pytest.approx(12)
    assert bench.err_digits([10 * e for e in (1e-10, 1e-12, 1e-13)]) == pytest.approx(11)


def test_verdicts():
    parent = {s: 1.0 + 0.01 * (s % 3) for s in range(10)}
    faster = {s: 0.5 + 0.01 * (s % 3) for s in range(10)}
    slower = {s: 1.5 + 0.01 * (s % 3) for s in range(10)}
    assert stats.verdict(parent, faster, "lower", 0.1)["verdict"] == "improved"
    assert stats.verdict(parent, dict(parent), "lower", 0.1)["verdict"] == "no worse"
    assert stats.verdict(parent, slower, "lower", 0.1)["verdict"] == "worse"
    noisy = {s: 1.0 + 0.5 * (s % 2) for s in range(10)}
    assert stats.verdict(parent, noisy, "lower", 0.1)["verdict"] == "unresolved"
    assert stats.verdict(parent, faster, "higher", None)["verdict"] == "n/a"


def test_benchmark_json_names_every_metric():
    spec = bench.load_benchmark()
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in tracing.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit, _ in tracing.PER_LAYER]
    for m in spec["end_to_end"]:
        assert bench.E2E_UNITS[m["name"]] == m["unit"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "linear", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
