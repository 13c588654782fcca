"""The 21-point Gauss-Kronrod rule and the rigidity profile match, each one
frame, against the loop forms of kernel_reference bit for bit; and the
per-call counts the benchmark's tracer reads from both."""

import json
import math
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from needlecomp import (CurvatureDimension, DensityProfile, EuclideanBall, GeodesicSphere,
                        LevelPoint, NeedlecompError, ParameterError, RoundSphere,
                        SphericalSuspension, WeightedInterval, constant_interval, decompose,
                        equality_detect, model_interval)
from needlecomp import hk, numerics
from needlecomp.geometry import radial_model
from needlecomp.model1d import J_OVERFLOWS

import kernel_reference

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _outcome(call, *args):
    """repr(call(*args)), which tells floats apart bit for bit short of NaN
    payloads, or the type and message of the error it raises."""
    try:
        return repr(call(*args))
    except (NeedlecompError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _rule_outcome(rule, f, a, b):
    """The rule's outcome on f over [a, b] and the points it evaluated f at."""
    points = []

    def recorded(x):
        points.append(x)
        return f(x)
    return _outcome(rule, recorded, a, b), repr(points)


def assert_same_rule(f, a, b):
    assert (_rule_outcome(numerics._dqk21, f, a, b)
            == _rule_outcome(kernel_reference.dqk21, f, a, b))


def assert_same_dqagse(f, a, b):
    """The whole quadrature with the package rule and with the loop rule."""
    got = _rule_outcome(numerics.dqagse, f, a, b)
    with mock.patch.object(numerics, "_dqk21", kernel_reference.dqk21):
        ref = _rule_outcome(numerics.dqagse, f, a, b)
    assert got == ref


def assert_same_deviation(dec):
    assert (_outcome(hk._profile_deviation, dec)
            == _outcome(kernel_reference.profile_deviation, dec))


# ------------------------------------------- needle densities of every kind

_CD = st.tuples(st.floats(0.05, 5.0), st.floats(1.5, 40.0))  # (K, N)
GEOMETRIES = st.one_of(
    st.builds(RoundSphere, st.integers(2, 40), st.floats(0.05, 20.0)),
    st.builds(EuclideanBall, st.integers(2, 40), st.floats(0.05, 20.0)),
    st.builds(lambda cd, v: SphericalSuspension(CurvatureDimension(*cd), v), _CD,
              st.floats(0.1, 10.0)),
    st.builds(lambda cd, share: model_interval(CurvatureDimension(*cd), length=share * math.pi
                                               * math.sqrt((cd[1] - 1.0) / cd[0])),
              _CD, st.floats(0.2, 1.0)))


def _decompose(geom, share):
    surface = LevelPoint if isinstance(geom, WeightedInterval) else GeodesicSphere
    try:
        return decompose(geom, surface(share * radial_model(geom).length))
    except NeedlecompError:
        assume(False)


@settings(max_examples=80, deadline=None)
@given(GEOMETRIES, st.floats(0.02, 0.98), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_needle_densities_of_every_kind_over_random_tubes(geom, share, lo, hi):
    dec = _decompose(geom, share)
    p = dec.needle.profile
    a = p.a + lo * (p.b - p.a)
    b = a + hi * (p.b - a)
    assert_same_rule(p.fn, a, b)
    assert_same_dqagse(p.fn, a, b)
    assert_same_deviation(dec)


# ------------------------------------------- NaN, infinities, -0.0, subnormal widths

EDGE_INTEGRANDS = {
    "nan": lambda x: math.nan,
    "nan on a part": lambda x: math.nan if x > 0.3 else x,
    "+inf": lambda x: math.inf,
    "-inf on a part": lambda x: -math.inf if x < 0.5 else 1.0,
    "inf and -inf": lambda x: math.inf if x > 0.5 else -math.inf,
    "-0.0": lambda x: -0.0,
    "-0.0 and 0.0": lambda x: -0.0 if x < 0.5 else 0.0,
    "sums overflow": lambda x: 1.7e308,
    "subnormal": lambda x: 5e-324,
    "sign flips": lambda x: 1.0 if math.sin(1e3 * x) > 0.0 else -1.0,
}
EDGE_INTERVALS = (
    (0.0, 1.0), (1.0, 0.0), (0.5, 0.5), (0.0, 5e-324), (-5e-324, 5e-324),
    (1e-320, 3e-320), (1.0, math.nextafter(1.0, 2.0)), (-1e-310, 1e-310),
)


@pytest.mark.parametrize("name", sorted(EDGE_INTEGRANDS))
@pytest.mark.parametrize("a, b", EDGE_INTERVALS)
def test_edge_integrands_and_widths(name, a, b):
    assert_same_rule(EDGE_INTEGRANDS[name], a, b)
    assert_same_dqagse(EDGE_INTEGRANDS[name], a, b)


# ------------------------------------------- API densities on a WeightedInterval

@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 8.0), st.floats(-3.0, 3.0), st.floats(0.0, 0.9), st.floats(0.0, 12.0),
       st.floats(-2.0, 2.0), st.floats(1.5, 12.0), st.floats(0.05, 0.95),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_api_densities_on_a_weighted_interval(length, alpha, beta, omega, K, N, share,
                                              lo, hi):
    density = DensityProfile(
        0.0, length, lambda r: math.exp(alpha * r) * (1.0 + beta * math.sin(omega * r)))
    dec = _decompose(WeightedInterval(length, density, CurvatureDimension(K, N)), share)
    p = dec.needle.profile
    a = p.a + lo * (p.b - p.a)
    b = a + hi * (p.b - a)
    assert_same_rule(p.fn, a, b)
    assert_same_dqagse(p.fn, a, b)
    assert_same_deviation(dec)


@pytest.mark.parametrize("value", (math.nan, math.inf, 1e-12, 0.0, -0.0, -1.0))
def test_profile_match_keeps_max_on_odd_values_of_J(monkeypatch, value):
    # max(worst, nan) keeps worst while max(nan, worst) is nan; J is patched
    # in both modules, so the loops see the same values
    dec = decompose(RoundSphere(3, 1.0), GeodesicSphere(1.0))
    original = hk.jacobian
    odd = lambda p, r: value if r > 0.3 else original(p, r)
    monkeypatch.setattr(hk, "jacobian", odd)
    monkeypatch.setattr(kernel_reference, "jacobian", odd)
    assert_same_deviation(dec)


def test_a_jacobian_that_overflows_is_a_parameter_error():
    # cosh(sqrt(-kappa) r) overflows a float near the ends of this needle
    dec = decompose(constant_interval(2000.0, CurvatureDimension(-1.0, 2.0)),
                    LevelPoint(1000.0))
    for deviation in (hk._profile_deviation, kernel_reference.profile_deviation):
        with pytest.raises(ParameterError) as err:
            deviation(dec)
        assert str(err.value) == J_OVERFLOWS
    assert_same_deviation(dec)


# ------------------------------------------- the counts the tracer reads

def test_the_rule_evaluates_21_points_in_dqk21_order():
    points = []
    a, b = 0.25, 1.75

    def counting(x):
        points.append(x)
        return math.exp(x)
    numerics._dqk21(counting, a, b)
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    expected = [centr]
    for j in (*range(1, 10, 2), *range(0, 10, 2)):
        expected += [centr - hlgth * numerics._XGK[j], centr + hlgth * numerics._XGK[j]]
    assert len(points) == 21 and points == expected


def test_dqagse_counts_every_evaluation():
    points = []

    def counting(x):
        points.append(x)
        return math.sqrt(x)
    neval = numerics.dqagse(counting, 0.0, 1.0)[2]
    assert neval > 21 and len(points) == neval


def test_equality_detect_calls_hk_jacobian_at_every_match_point(monkeypatch):
    dec = decompose(RoundSphere(2, 1.0), GeodesicSphere(math.pi / 2))
    calls = []
    original = hk.jacobian

    def counting(p, r):
        calls.append(r)
        return original(p, r)
    monkeypatch.setattr(hk, "jacobian", counting)
    assert equality_detect(dec).rigid
    assert len(calls) == hk.PROFILE_MATCH_POINTS


def test_the_benchmark_tracer_counts_both_kernels(run_isolated):
    out = run_isolated(f"""
import json, math
sys.path.insert(0, {str(PERFBENCH)!r})
import tracer
from needlecomp import cli, hk, numerics, GeodesicSphere, RoundSphere, decompose
dec = decompose(RoundSphere(2, 1.0), GeodesicSphere(math.pi / 2))
t = tracer.Tracer()
t.install()
hk.equality_detect(dec)
jacobian_calls = t.counts["model1d.jacobian.calls"]
numerics.integrate(math.sqrt, 0.0, 1.0)
print(json.dumps([jacobian_calls, t.counts["numerics.integrand_evals"],
                  numerics.dqagse(math.sqrt, 0.0, 1.0)[2]]))
""")
    jacobian_calls, evals, neval = json.loads(out)
    assert jacobian_calls == hk.PROFILE_MATCH_POINTS
    assert evals == neval > 21
