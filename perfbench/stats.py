"""Summary statistics for one run and the parent-versus-change comparison.

The comparison rules follow the benchmark's own contract: a metric improves
only when the change wins at least nine tenths of the seed-matched pairs and
the medians differ by more than the parent's quartile spread; it is worse
when its median moves the wrong way by more than the metric's bound; and it
is unresolved when the run-to-run spread is wider than the bound, unless
every run of one side reads better than every run of the other.

A metric that repeats exactly for a seed (an accuracy figure) has no
run-to-run spread; it is compared seed by seed instead, by the median of
the matched pairs' relative changes.
"""

from __future__ import annotations

import statistics

#: a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10


def tail(values):
    """(value, percentile, samples): the highest percentile with TAIL_BEYOND samples beyond it.

    With n samples that is the (TAIL_BEYOND + 1)-th largest, at percentile
    100 * (n - TAIL_BEYOND) / n.  With too few samples there is no such
    percentile; the maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Quartile distance as a share of the median (0 when the median is 0)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def _better(a, b, better):
    return a < b if better == "lower" else a > b


def _worse_by(p, c, better):
    """Relative change of c against p, positive when c is worse."""
    return (c - p if better == "lower" else p - c) / abs(p) if p else 0.0


def verdict(parent: dict, change: dict, better: str, bound: float | None, exact: bool = False):
    """Compare two {seed: value} maps of one metric on one workload.

    Returns a dict with both sides' quartiles, the pairs won by the change,
    the pairs compared and one of 'improved', 'no worse', 'unresolved',
    'worse' (or 'n/a' when the metric has no bound).  With exact, the
    metric repeats exactly for a seed and the verdict rests on the
    seed-matched pairs.
    """
    pv, cv = list(parent.values()), list(change.values())
    p1, pm, p3 = quartiles(pv)
    c1, cm, c3 = quartiles(cv)
    seeds = sorted(set(parent) & set(change))
    won = sum(_better(change[s], parent[s], better) for s in seeds)
    out = {"parent": (p1, pm, p3), "change": (c1, cm, c3), "won": won, "pairs": len(seeds)}
    if bound is None:
        out["verdict"] = "n/a"
        return out
    if exact and seeds:
        worse_by = statistics.median(_worse_by(parent[s], change[s], better) for s in seeds)
        if worse_by > bound:
            out["verdict"] = "worse"
        elif won >= 0.9 * len(seeds) and worse_by < 0:
            out["verdict"] = "improved"
        else:
            out["verdict"] = "no worse"
        return out
    spread = p3 - p1
    if seeds and won >= 0.9 * len(seeds) and abs(cm - pm) > spread and _better(cm, pm, better):
        out["verdict"] = "improved"
        return out
    worse_by = _worse_by(pm, cm, better)
    all_better = all(_better(c, p, better) for c in cv for p in pv)
    all_worse = all(_better(p, c, better) for c in cv for p in pv)
    if max(relative_spread(pv), relative_spread(cv)) > bound:
        if all_better:
            out["verdict"] = "no worse"
        elif all_worse and worse_by > bound:
            out["verdict"] = "worse"
        else:
            out["verdict"] = "unresolved"
    else:
        out["verdict"] = "worse" if worse_by > bound else "no worse"
    return out
