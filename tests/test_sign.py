"""kernel.classify_sign against the branch-per-class form kept in sign_oracle.py,
and its InternalInconsistency raises under a contradicting kernel."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sign_oracle
from refleq.errors import InternalInconsistency
from refleq.kernel import Kernel, ProblemParams, SignClass, classify_sign, sign_class


def _ulps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


# within 8 ulps of +-pi/4 and of either edge of the 1e-12 band around it
EDGE_ALPHAS = st.builds(
    lambda sign, edge, k: sign * _ulps(math.pi / 4 + edge, k),
    st.sampled_from([1.0, -1.0]),
    st.sampled_from([0.0, -1e-12, 1e-12]),
    st.integers(-8, 8),
)
UNIFORM_ALPHAS = st.floats(-4.0, 4.0).filter(lambda a: abs(a - round(a / math.pi) * math.pi) > 1e-6)
TS = st.sampled_from([2.0**k for k in range(-3, 4)]) | st.floats(0.1, 10.0)


def _outcome(classify, params, grid_n):
    try:
        return asdict(classify(params, grid_n))
    except InternalInconsistency:
        return InternalInconsistency


@settings(max_examples=200, deadline=None)
@given(alpha=EDGE_ALPHAS | UNIFORM_ALPHAS, T=TS, grid_n=st.sampled_from([3, 4, 21, 41]))
def test_classify_sign_matches_the_branch_per_class_oracle(alpha, T, grid_n):
    params = ProblemParams(alpha / T, T)
    assert _outcome(classify_sign, params, grid_n) == _outcome(sign_oracle.classify_sign, params, grid_n)


@pytest.mark.parametrize(
    "edge, k, expected",
    [
        (-1e-12, -8, SignClass.STRICTLY_POSITIVE),
        (-1e-12, 8, SignClass.NONNEG_VANISHING_ON_P),
        (1e-12, -8, SignClass.NONNEG_VANISHING_ON_P),
        (1e-12, 8, SignClass.MIXED_SIGN),
    ],
)
def test_the_band_edge_draws_fall_on_both_sides_of_each_edge(edge, k, expected):
    assert sign_class(_ulps(math.pi / 4 + edge, k)) is expected
    assert sign_class(-_ulps(math.pi / 4 + edge, k)) is {
        SignClass.STRICTLY_POSITIVE: SignClass.STRICTLY_NEGATIVE,
        SignClass.NONNEG_VANISHING_ON_P: SignClass.NONPOS_VANISHING_ON_P,
    }.get(expected, expected)


def _negated(gbar):
    return lambda self, t, s: -gbar(self, t, s)


def _absolute(gbar):
    return lambda self, t, s: np.abs(gbar(self, t, s))


def _shifted(gbar):
    return lambda self, t, s: gbar(self, t, s) + 1.0


@pytest.mark.parametrize(
    "alpha, expected, contradict",
    [
        (0.5, SignClass.STRICTLY_POSITIVE, _negated),
        (-0.5, SignClass.STRICTLY_NEGATIVE, _negated),
        (math.pi / 4, SignClass.NONNEG_VANISHING_ON_P, _negated),
        (-math.pi / 4, SignClass.NONPOS_VANISHING_ON_P, _negated),
        (math.pi / 4, SignClass.NONNEG_VANISHING_ON_P, _shifted),
        (-math.pi / 4, SignClass.NONPOS_VANISHING_ON_P, _shifted),
        (2.0, SignClass.MIXED_SIGN, _absolute),
    ],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_a_kernel_contradicting_its_class_raises(alpha, expected, contradict, monkeypatch):
    params = ProblemParams(alpha, 1.0)
    assert classify_sign(params, 21).classification is expected
    monkeypatch.setattr(Kernel, "gbar", contradict(Kernel.gbar))
    with pytest.raises(InternalInconsistency):
        classify_sign(params, 21)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("grid_n", [3, 4, 201])
@pytest.mark.parametrize("T", [1e-9, 1e-12])
def test_a_negated_boundary_kernel_raises_at_any_T(T, grid_n, sign, monkeypatch):
    # P is masked by grid index, so no tolerance in t and s lets a small T mask the whole grid
    params = ProblemParams(sign * math.pi / (4 * T), T)
    expected = SignClass.NONNEG_VANISHING_ON_P if sign > 0 else SignClass.NONPOS_VANISHING_ON_P
    assert classify_sign(params, grid_n).classification is expected
    monkeypatch.setattr(Kernel, "gbar", _negated(Kernel.gbar))
    with pytest.raises(InternalInconsistency):
        classify_sign(params, grid_n)
