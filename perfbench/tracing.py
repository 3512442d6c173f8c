"""Spans at refleq's layer boundaries, recorded from outside the library.

The tracer wraps each public entry point where its caller looks it up (a
class attribute, or a module global of the calling module) and restores the
originals on exit.  Each span records its name, start, end, parent span and
op id; spans stay in memory and are written out when the run ends.

Callables that run once per point or per RK4 stage (forcings,
nonlinearities, the reduced system's right-hand side) would need millions
of spans, so they are leaves: their calls, points and seconds are summed
into the enclosing span.  A leaf called inside another leaf (the
nonlinearity inside a monotone sweep's forcing) is counted but not timed,
because its time is already part of the outer leaf.

A span's self time is its duration minus its child spans and its timed
leaves.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

from refleq import catalog, cli, cone, kernel, linsolve, monotone, reduce

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("kernel.calls", "count", "lower"),
    ("kernel.points", "count", "lower"),
    ("kernel.self_s", "s", "lower"),
    ("linsolve.builds", "count", "lower"),
    ("linsolve.build_self_s", "s", "lower"),
    ("linsolve.rule_bytes", "B", "lower"),
    ("linsolve.solves", "count", "lower"),
    ("linsolve.solve_self_s", "s", "lower"),
    ("linsolve.forcing_points", "count", "lower"),
    ("linsolve.forcing_s", "s", "lower"),
    ("monotone.sweeps", "count", "lower"),
    ("monotone.self_s", "s", "lower"),
    ("monotone.contraction", "ratio", "lower"),
    ("monotone.converged_ratio", "ratio", "higher"),
    ("reduce.integrations", "count", "lower"),
    ("reduce.rk4_steps", "count", "lower"),
    ("reduce.rhs_evals", "count", "lower"),
    ("reduce.rk4_self_s", "s", "lower"),
    ("reduce.rhs_s", "s", "lower"),
    ("reduce.integrations_per_solve", "count", "lower"),
    ("reduce.genuine_ratio", "ratio", "higher"),
    ("cone.checks", "count", "lower"),
    ("cone.samples", "count", "lower"),
    ("cone.self_s", "s", "lower"),
    ("cli.commands", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_out", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

#: bytes held per quadrature node: the node and its kernel-times-weight product
RULE_NODE_BYTES = 16

KERNEL_EVALS = ("kernel.g", "kernel.gbar", "kernel.gbar_diagonal_limits")
CONE_CHECKS = (
    "cone.check_positive_existence",
    "cone.check_negative_existence",
    "cone.check_asymptotic_corollary",
    "cone.sweep_annulus",
)


@dataclass
class Span:
    name: str
    start: float
    parent: int
    op: int
    end: float = 0.0
    points: int = 0
    info: dict = field(default_factory=dict)
    leaves: dict = field(default_factory=dict)  # name -> [calls, points, seconds]


def _grid_points(args, kwargs):
    return int(np.broadcast(np.asarray(args[1]), np.asarray(args[2] if len(args) > 2 else kwargs["s"])).size)


def _diag_points(args, kwargs):
    return int(np.size(args[1]))


def _iterate_info(bound, out):
    gaps = out.gap_history
    return {
        "iterations": out.iterations,
        "final_gap": out.final_gap,
        "tol": bound.arguments["tol"],
        "contraction": gaps[-1] / gaps[-2] if len(gaps) > 1 and gaps[-2] else None,
    }


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.leaf_depth = 0
        self.op = -1
        self._patches = []

    # -- recording -----------------------------------------------------------------

    def open(self, name: str, points: int = 0) -> int:
        sid = len(self.spans)
        self.spans.append(Span(name, 0.0, self.stack[-1] if self.stack else -1, self.op, points=points))
        self.stack.append(sid)
        self.spans[sid].start = perf_counter()
        return sid

    def close(self, sid: int):
        self.spans[sid].end = perf_counter()
        self.stack.pop()

    def leaf(self, name: str, fn):
        """Wrap a per-point callable: calls, points and seconds go to the enclosing span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            agg = tracer.spans[tracer.stack[-1]].leaves.setdefault(name, [0, 0, 0.0])
            if tracer.leaf_depth:
                out = fn(*args, **kwargs)
                agg[0] += 1
                agg[1] += getattr(out, "size", 1)
                return out
            tracer.leaf_depth += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                agg[2] += perf_counter() - t0
                tracer.leaf_depth -= 1
                agg[0] += 1
            agg[1] += getattr(out, "size", 1)
            return out

        return wrapper

    # -- wrapping ------------------------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _span_wrapper(self, name: str, orig, points=None, pre=None, post=None):
        """Span around orig.  pre(bound) may rewrite the arguments and returns
        info known before the call; post(bound, out) adds info from the result.
        A call that raises records the exception's name instead."""
        tracer = self
        sig = inspect.signature(orig) if pre or post else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            bound, info = None, {}
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if pre:
                    info = pre(bound)
                args, kwargs = bound.args, bound.kwargs
            sid = tracer.open(name, points(args, kwargs) if points else 0)
            tracer.spans[sid].info = info
            try:
                out = orig(*args, **kwargs)
            except Exception as exc:
                info["raised"] = type(exc).__name__
                raise
            finally:
                tracer.close(sid)
            if post:
                info.update(post(bound, out))
            return out

        return wrapper

    def wrap(self, owners, attr: str, name: str, **hooks):
        """Wrap owners[0].attr once and install the wrapper on every owner."""
        wrapper = self._span_wrapper(name, getattr(owners[0], attr), **hooks)
        for owner in owners:
            self._patch(owner, attr, wrapper)

    def _rk4_pre(self, bound):
        bound.arguments["rhs"] = self.leaf("reduce.rhs", bound.arguments["rhs"])
        return {"n_steps": bound.arguments["n_steps"]}

    def __enter__(self):
        K, P = kernel.Kernel, linsolve.PeriodicGreenSolver
        self.wrap([K], "g", "kernel.g", points=_grid_points)
        self.wrap([K], "gbar", "kernel.gbar", points=_grid_points)
        self.wrap([K], "gbar_diagonal_limits", "kernel.gbar_diagonal_limits", points=_diag_points)
        self.wrap([kernel, cone], "kernel_bounds", "kernel.kernel_bounds")
        self.wrap([kernel], "classify_sign", "kernel.classify_sign")
        self.wrap([P], "__init__", "linsolve.build")
        self.wrap([P], "solve", "linsolve.solve")
        self.wrap([linsolve], "solve_grid", "linsolve.solve_grid")
        self.wrap([linsolve, monotone], "residual", "linsolve.residual")
        self.wrap([monotone], "iterate", "monotone.iterate", post=_iterate_info)
        self.wrap([reduce], "integrate_rk4", "reduce.integrate_rk4", pre=self._rk4_pre)
        self.wrap([reduce], "shoot_periodic", "reduce.shoot_periodic")
        self.wrap([reduce], "filter_reflection_solution", "reduce.filter_reflection_solution",
                  post=lambda b, out: {"genuine": out.genuine})
        for name in (*[c.split(".")[1] for c in CONE_CHECKS], "fixed_point_operator"):
            self.wrap([cone], name, f"cone.{name}")
        self.wrap([cli], "run", "cli.run")
        # forcings as linsolve evaluates them, and the catalog's user functions
        vectorized = linsolve.vectorized
        self._patch(linsolve, "vectorized", lambda f: self.leaf("forcing", vectorized(f)))
        forcing, lag = catalog.forcing, catalog.hyperbolic_lag
        self._patch(catalog, "forcing", lambda ident: self.leaf("user.fn", forcing(ident)))
        self._patch(catalog, "hyperbolic_lag", lambda lam: self.leaf("user.fn", lag(lam)))
        self._patch(catalog, "product_nonlinearity", self.leaf("user.fn", catalog.product_nonlinearity))
        self._patch(catalog, "NONLINEARITIES", {k: self.leaf("user.fn", f) for k, f in catalog.NONLINEARITIES.items()})
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        return False

    def wrap_user_fn(self, fn):
        return self.leaf("user.fn", fn)

    # -- reporting -----------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, **asdict(span)}, separators=(",", ":")) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus child spans and timed leaves, per span."""
    out = [s.end - s.start - sum(v[2] for v in s.leaves.values()) for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span], overhead_s: float) -> dict:
    """Every PER_LAYER metric from the spans of a traced run (0 where a layer is unused)."""
    own = self_times(spans)
    by = {}
    for sid, s in enumerate(spans):
        by.setdefault(s.name, []).append(sid)

    def ids(*names):
        return [i for n in names for i in by.get(n, [])]

    def self_s(*names):
        return sum(own[i] for i in ids(*names))

    def leaf(names, leaf_name, k):
        return sum(spans[i].leaves.get(leaf_name, (0, 0, 0.0))[k] for i in ids(*names))

    kernel_spans = ids(*KERNEL_EVALS, "kernel.kernel_bounds", "kernel.classify_sign")
    builds = ids("linsolve.build")
    rule_nodes = [0] * len(spans)
    for i in ids("kernel.gbar"):
        rule_nodes[spans[i].parent] += spans[i].points
    iterates = [spans[i].info for i in ids("monotone.iterate") if "raised" not in spans[i].info]
    contractions = [it["contraction"] for it in iterates if it["contraction"] is not None]
    shoots = len(ids("reduce.shoot_periodic"))
    filters = [spans[i].info["genuine"] for i in ids("reduce.filter_reflection_solution") if "raised" not in spans[i].info]
    integrations = len(ids("reduce.integrate_rk4"))
    cone_spans = (*CONE_CHECKS, "cone.fixed_point_operator")
    values = {
        "kernel.calls": len(kernel_spans),
        "kernel.points": sum(spans[i].points for i in ids(*KERNEL_EVALS)),
        "kernel.self_s": sum(own[i] for i in kernel_spans),
        "linsolve.builds": len(builds),
        "linsolve.build_self_s": self_s("linsolve.build"),
        "linsolve.rule_bytes": RULE_NODE_BYTES * max((rule_nodes[i] for i in builds), default=0),
        "linsolve.solves": len(ids("linsolve.solve")),
        "linsolve.solve_self_s": self_s("linsolve.solve"),
        "linsolve.forcing_points": leaf(["linsolve.solve"], "forcing", 1),
        "linsolve.forcing_s": leaf(["linsolve.solve"], "forcing", 2),
        "monotone.sweeps": sum(it["iterations"] for it in iterates),
        "monotone.self_s": self_s("monotone.iterate"),
        "monotone.contraction": statistics.median(contractions) if contractions else 0.0,
        "monotone.converged_ratio": (
            sum(it["final_gap"] <= it["tol"] for it in iterates) / len(iterates) if iterates else 0.0
        ),
        "reduce.integrations": integrations,
        "reduce.rk4_steps": sum(spans[i].info["n_steps"] for i in ids("reduce.integrate_rk4")),
        "reduce.rhs_evals": leaf(["reduce.integrate_rk4"], "reduce.rhs", 0),
        "reduce.rk4_self_s": self_s("reduce.integrate_rk4"),
        "reduce.rhs_s": leaf(["reduce.integrate_rk4"], "reduce.rhs", 2),
        "reduce.integrations_per_solve": integrations / shoots if shoots else 0.0,
        "reduce.genuine_ratio": sum(filters) / len(filters) if filters else 0.0,
        "cone.checks": len(ids(*CONE_CHECKS)),
        "cone.samples": leaf(cone_spans, "user.fn", 1),
        "cone.self_s": self_s(*cone_spans),
        "cli.commands": len(ids("cli.run")),
        "cli.self_s": self_s("cli.run"),
        "cli.bytes_out": sum(s.info.get("bytes_out", 0) for s in spans if s.parent < 0),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
