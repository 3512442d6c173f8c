"""Run one workload as a closed loop and report its metrics.

One caller in one process sends the next operation only after the previous
one has returned; no threads or subprocesses carry load.  The only child
processes are the fresh interpreters that time `import refleq` (setup_s).

The work of a run is fixed by its arguments: --seconds sets the number of
decks (see workloads.DECK_SECONDS), and the seed sets the inputs, so every
run of a seed performs the same operations whatever the machine's speed.
On a shared host whose speed drifts by tens of percent, a time-bounded run
would change its op count and mix with the drift; a fixed mix keeps the
medians and the tail percentile comparable between runs.

Untraced runs (--trace 0) report the end-to-end metrics.  Their times
are scaled to a reference host speed: a fixed calibration load runs
between every two timed calls, and each call's wall time is scaled by how
much slower or faster the calibration ran around it (see hostspeed.py).
The raw wall-time figures are printed and recorded next to them.  Traced runs
(--trace 1) run one deck untraced and then traced, and report the
per-layer metrics of the traced pass; trace.overhead_s is the difference of
the two passes' op times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import hostspeed
import stats
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: fresh interpreters timed per run for setup_s
SETUP_REPEATS = 5
#: err_digits of an exact result (max_err 0)
ERR_FLOOR = 1e-17

#: a run that has taken this many times --seconds stops after the current op
GUARD_FACTOR = 6

#: end-to-end metrics that repeat exactly for a seed (BLAS runs on one thread)
EXACT = ("max_err", "err_digits", "failed_frac")

#: every end-to-end figure a run prints; the *_raw ones and host_speed are
#: unscaled wall-time figures and the calibration itself, for the record
E2E_UNITS = {
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "max_err": "1",
    "err_digits": "digits",
    "failed_frac": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s_raw": "1/s",
    "setup_s_raw": "s",
    "host_speed": "1",
}


@dataclass
class OpResult:
    kind: str
    seconds: float
    ok: bool
    err: float = 0.0
    error: str = ""
    bytes_out: int = 0
    #: host-speed scale of the call (see hostspeed.scales); 1 when not calibrated
    scale: float = 1.0
    #: seconds of the calibration that ran right after the call; 0 when not calibrated
    cal: float = 0.0

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def setup_seconds(repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """(scaled, raw) median wall time for a fresh interpreter to `import refleq`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, cals = [], [hostspeed.calibrate()]
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import refleq"], env=env, check=True, timeout=120)
        times.append(perf_counter() - t0)
        cals.append(hostspeed.calibrate())
    scaled = [t * k for t, k in zip(times, hostspeed.scales(cals))]
    return statistics.median(scaled), statistics.median(times)


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
        "commit": _git_commit(),
    }


def run_ops(
    workload: str, ops, tracer: tracing.Tracer | None = None, deadline: float = float("inf"), calibrate: bool = False
) -> list[OpResult]:
    """Run ops one after another; time each call, then check it against its oracle.

    With calibrate, the host-speed calibration runs before the first call
    and after each one, and every result gets its scale.
    """
    out = []
    cals = [hostspeed.calibrate()] if calibrate else []
    wrap = tracer.wrap_user_fn if tracer else None
    for op in ops:
        if perf_counter() > deadline:
            break
        if out and calibrate:
            cals.append(hostspeed.calibrate())
        sid = None
        if tracer:
            tracer.op += 1
            sid = tracer.open(f"op.{workload}")
        t0 = perf_counter()
        try:
            result = op.run(wrap)
        except Exception as exc:  # noqa: BLE001 - a raising op is a counted failure
            seconds = perf_counter() - t0
            if tracer:
                tracer.close(sid)
            out.append(OpResult(op.kind, seconds, False, error="".join(traceback.format_exception_only(exc)).strip()))
            continue
        seconds = perf_counter() - t0
        res = OpResult(op.kind, seconds, True)
        if workload == "cli-readme":
            res.bytes_out = workloads.cli_bytes(result)
        if tracer:
            tracer.close(sid)
            tracer.spans[sid].info = {"kind": op.kind, "bytes_out": res.bytes_out}
        try:
            res.err = op.check(result)
        except workloads.OracleMismatch as exc:
            res.ok, res.error = False, str(exc)
        out.append(res)
    if calibrate and out:
        cals.append(hostspeed.calibrate())
        for res, scale, cal in zip(out, hostspeed.scales(cals), cals[1:]):
            res.scale, res.cal = scale, cal
    return out


def err_digits(errs) -> float:
    """Median correct digits of the ops, -log10(err) each (ERR_FLOOR for an exact result).

    It drops by one when most ops lose a factor of ten.  The worst op's
    digits and the mean both follow the few hardest inputs a seed draws
    (monotone points with small lambda) and spread several times more
    between seeds; a loss on a minority of ops shows in max_err instead.
    """
    return statistics.median(-math.log10(max(e, ERR_FLOOR)) for e in errs) if errs else 0.0


def end_to_end(results: list[OpResult], setup: tuple[float, float]) -> tuple[dict, dict]:
    """(metrics, tail details) of an untraced run; times are host-speed scaled."""
    times = [r.scaled for r in results]
    done = [r for r in results if r.ok]
    tail_value, tail_pct, n = stats.tail(times)
    values = {
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_value,
        "ops_per_s": len(done) / sum(times),
        "max_err": max((r.err for r in done), default=0.0),
        "err_digits": err_digits([r.err for r in done]),
        "failed_frac": (len(results) - len(done)) / len(results),
        "setup_s": setup[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s_raw": len(done) / sum(r.seconds for r in results),
        "setup_s_raw": setup[1],
        "host_speed": sum(times) / sum(r.seconds for r in results),
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return metrics, {"op_s_tail_percentile": tail_pct, "op_s_samples": n}


def kind_shares(results: list[OpResult]) -> dict:
    shares = {}
    for r in results:
        shares[r.kind] = shares.get(r.kind, 0) + 1
    return {k: v / len(results) for k, v in sorted(shares.items())}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def decks_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / workloads.DECK_SECONDS[workload]))


def measure(workload: str, seed: int, seconds: float, tmpdir: Path) -> tuple[list[OpResult], int]:
    """(results, ops planned) of the run's decks; stops early only past GUARD_FACTOR * seconds."""
    ops = workloads.ops(workload, seed, decks_for(workload, seconds), tmpdir)
    workloads.warm_up(workload, tmpdir)
    return run_ops(workload, ops, deadline=perf_counter() + GUARD_FACTOR * seconds, calibrate=True), len(ops)


def traced(workload: str, seed: int, tmpdir: Path):
    """(untraced results, traced results, tracer) for one deck of the seed."""
    ops = workloads.ops(workload, seed, 1, tmpdir)
    workloads.warm_up(workload, tmpdir)
    plain = run_ops(workload, ops)
    with tracing.Tracer() as tracer:
        with_trace = run_ops(workload, ops, tracer)
    return plain, with_trace, tracer


def _print_table(title: str, metrics: dict):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:<24.6g} {m['unit']}")


def run(workload: str, seed: int, seconds: float, trace: bool, results_dir: Path) -> dict:
    results_dir.mkdir(parents=True, exist_ok=True)
    tmpdir = results_dir / f"tmp-{os.getpid()}"
    tmpdir.mkdir()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "env": environment(seed)}
    try:
        if trace:
            plain, with_trace, tracer = traced(workload, seed, tmpdir)
            overhead = sum(r.seconds for r in with_trace) - sum(r.seconds for r in plain)
            metrics = tracing.layer_metrics(tracer.spans, overhead)
            all_results = plain + with_trace
            spans_path = results_dir / f"spans-{workload}-seed{seed}.jsonl"
            tracer.write(spans_path)
            record["spans"] = spans_path.name
        else:
            setup = setup_seconds()
            all_results, planned = measure(workload, seed, seconds, tmpdir)
            metrics, details = end_to_end(all_results, setup)
            record.update(details, planned_ops=planned)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    failed = [r for r in all_results if not r.ok]
    record.update(
        metrics=metrics,
        kind_shares=kind_shares(all_results),
        ops=[vars(r) for r in all_results],
    )
    title = f"{workload} seed={seed} trace={int(trace)} ops={len(all_results)} failed={len(failed)}"
    if record.get("planned_ops", len(all_results)) > len(all_results):
        title += f" (stopped after {GUARD_FACTOR}x --seconds; {record['planned_ops']} planned)"
    _print_table(title, metrics)
    if not trace:
        print(f"  op_s_tail is p{record['op_s_tail_percentile']:.1f} of {record['op_s_samples']} ops")
    print("  op kinds: " + ", ".join(f"{k} {v:.3f}" for k, v in record["kind_shares"].items()))
    for r in failed[:5]:
        print(f"  FAILED {r.kind}: {r.error}")
    out_path = results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if trace:
        names = [m["name"] for m in load_benchmark()["per_layer"]]
    else:
        names = [m["name"] for m in load_benchmark()["end_to_end"]]
    return {
        "correct": not failed,
        "attempted": len(all_results),
        "failed": len(failed),
        "metrics": {n: metrics[n] for n in names},
    }


def _records(directory: Path) -> dict:
    """{workload: {metric: {seed: value}}} from the untraced records in a directory."""
    out: dict = {}
    for path in sorted(directory.glob("*-trace0.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        for name, m in rec["metrics"].items():
            out.setdefault(rec["workload"], {}).setdefault(name, {})[rec["seed"]] = m["value"]
    return out


def compare(parent_dir: Path, change_dir: Path) -> int:
    """Print one row per workload and metric: both sides' quartiles, pairs won, verdict."""
    spec = {m["name"]: m for m in load_benchmark()["end_to_end"]}
    parent, change = _records(parent_dir), _records(change_dir)
    print(f"{'workload':12s} {'metric':14s} {'parent q1/med/q3':38s} {'change q1/med/q3':38s} {'won':>7s}  verdict")
    worst = 0
    for workload in sorted(set(parent) & set(change)):
        for name in E2E_UNITS:
            if name not in parent[workload] or name not in change[workload]:
                continue
            m = spec.get(name)
            p, c = parent[workload][name], change[workload][name]
            v = stats.verdict(p, c, m["better"] if m else "lower", m["bound"] if m else None, name in EXACT)
            if name == "failed_frac":  # no failure may be added, whatever the noise
                v["verdict"] = "worse" if max(c.values()) > max(p.values()) else "no worse"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"{workload:12s} {name:14s} {fmt(v['parent']):38s} {fmt(v['change']):38s} "
                  f"{v['won']:>3d}/{v['pairs']:<3d}  {v['verdict']}")
            worst = max(worst, v["verdict"] == "worse")
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="refleq benchmark: closed loop, oracle-checked, one workload per run")
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--results", type=Path, default=RESULTS, help="directory for run records and spans")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
                   help="compare two directories of run records instead of running")
    p.add_argument("--write-cli-reference", action="store_true",
                   help="record the cli-readme outputs of this checkout as the reference instead of running")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.write_cli_reference:
        args.results.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=args.results) as tmpdir:
            workloads.write_cli_reference(Path(tmpdir), _git_commit())
        return 0
    if not args.workload:
        p.error("--workload is required unless --compare is given")
    summary = run(args.workload, args.seed, args.seconds, bool(args.trace), args.results)
    print(json.dumps(summary))
    return 0
